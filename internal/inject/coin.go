package inject

import "math/rand"

// LinkCoin is the one coin every probabilistic link condition flips: a
// uniform draw in [0, 1) that is a pure function of (seed, round, from,
// to). adversary.RandomDrops, Omission and Delay all compare it against
// their Prob, so the verdict function cannot drift between the adversary
// and the injector; the draw itself is pinned by a golden-value test
// (committed fuzz seeds and the benchmark's digests depend on it).
//
// The draw is, by definition, the first Float64 of a math/rand source
// seeded with seed^h — firstFloat64 computes exactly that value without
// building the source.
func LinkCoin(seed int64, round, from, to int) float64 {
	h := int64(round)*1_000_003 + int64(from)*10_007 + int64(to)
	return firstFloat64(seed ^ h)
}

// The pieces of math/rand's additive lagged-Fibonacci source that decide
// its early outputs. Seeding fills a 607-word vector: word i is three
// consecutive states of the Lehmer generator x ← 48271·x mod (2³¹−1),
// taken 21+3i steps after the (normalised) seed, spliced at bit offsets
// 40, 20 and 0 and XORed with a fixed "cooked" word. Draw j < 273 is
// word(333−j) + word(606−j) — tap and feed start at 0 and 607−273 and
// step down once before each read; draw 273 reads a word draw 0 wrote.
const (
	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// 48271^(21+3·333) and 48271^(21+3·606) mod 2³¹−1: the jump from
	// the seed to the first Lehmer state of words 333 and 606.
	lehmerJump333 = 2082024995
	lehmerJump606 = 933195560
	lazyDraws     = 273
)

// wordJump[i] is 48271^(21+3i) mod 2³¹−1. wordCooked is recovered at init
// from seed 1's first 607 outputs u: draw j ≥ 273 adds word(333−j mod 607)
// to u[j−273], which draw j−273 wrote.
var wordJump, wordCooked [607]int64

func init() {
	x := int64(1)
	for step := 1; step <= 21+3*606; step++ {
		if x = x * lehmerA % lehmerM; step >= 21 && step%3 == 0 {
			wordJump[(step-21)/3] = x
		}
	}
	if wordJump[333] != lehmerJump333 || wordJump[606] != lehmerJump606 {
		panic("inject: Lehmer jump table disagrees with its recurrence")
	}
	src := rand.NewSource(1).(rand.Source64)
	var u, w [607]int64
	for j := range u {
		u[j] = int64(src.Uint64())
	}
	for j := len(u) - 1; j >= 0; j-- {
		if j >= lazyDraws {
			w[(940-j)%607] = u[j] - u[j-lazyDraws]
		} else {
			w[333-j] = u[j] - w[606-j]
		}
	}
	for i := range wordCooked {
		wordCooked[i] = w[i] ^ seedWord(1, wordJump[i], 0)
	}
}

// Source is rand.NewSource(seed) computed lazily: draws 0–272 cost two
// word jump-aheads each, not a 607-word seeding, and later ones come from
// a real source advanced past them (TestSourceMatchesMathRand). Seed first.
type Source struct {
	seed, x int64 // as given, and normalised as math/rand does
	drawn   int
	tail    rand.Source64 // draws 273 on; reseeded, not reallocated
}

// Seed implements rand.Source.
func (s *Source) Seed(seed int64) {
	x := (seed%lehmerM + lehmerM) % lehmerM
	if x == 0 {
		x = 89482311 // math/rand's replacement for a zero Lehmer state
	}
	s.seed, s.x, s.drawn = seed, x, 0
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	j := s.drawn
	s.drawn++
	if j < lazyDraws {
		return uint64(seedWord(s.x, wordJump[333-j], wordCooked[333-j]) + seedWord(s.x, wordJump[606-j], wordCooked[606-j]))
	}
	if j == lazyDraws {
		if s.tail == nil {
			s.tail = rand.NewSource(0).(rand.Source64)
		}
		s.tail.Seed(s.seed)
		for range lazyDraws {
			s.tail.Uint64()
		}
	}
	return s.tail.Uint64()
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// firstFloat64 returns rand.New(rand.NewSource(seed)).Float64(): a
// Source's first draw, redrawn, as Float64 does, should rounding reach 1.
func firstFloat64(seed int64) float64 {
	var s Source
	s.Seed(seed)
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// seedWord is one word of the seeded vector: the three Lehmer states
// starting jump steps after x, spliced and XORed with the cooked word.
func seedWord(x, jump, cooked int64) int64 {
	x1 := x * jump % lehmerM
	x2 := x1 * lehmerA % lehmerM
	x3 := x2 * lehmerA % lehmerM
	return (x1<<40 ^ x2<<20 ^ x3) ^ cooked
}
