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
// its first output. Seeding fills a 607-word vector: word i is three
// consecutive states of the Lehmer generator x ← 48271·x mod (2³¹−1),
// taken 21+3i steps after the (normalised) seed, spliced at bit offsets
// 40, 20 and 0 and XORed with a fixed "cooked" word. The first Int63 is
// (vec[333] + vec[606]) masked to 63 bits — tap and feed start at 0 and
// 607−273 and step down once before the first read.
const (
	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// 48271^(21+3·333) and 48271^(21+3·606) mod 2³¹−1: the jump from
	// the seed to the first Lehmer state of words 333 and 606.
	lehmerJump333 = 2082024995
	lehmerJump606 = 933195560
	// rngCooked[333] and rngCooked[606] of GOROOT/src/math/rand/rng.go.
	cooked333 = -4633371852008891965
	cooked606 = 4152330101494654406
)

// firstFloat64 returns rand.New(rand.NewSource(seed)).Float64() in closed
// form: two modular jump-aheads instead of seeding 607 words (18 µs and a
// 5 kB source per coin, which made the coin the whole cost of a drop
// decision). TestLinkCoinMatchesMathRand holds it to the real source.
func firstFloat64(seed int64) float64 {
	x := seed % lehmerM
	if x < 0 {
		x += lehmerM
	}
	if x == 0 {
		x = 89482311 // math/rand's replacement for a zero Lehmer state
	}
	sum := seedWord(x, lehmerJump333, cooked333) + seedWord(x, lehmerJump606, cooked606)
	f := float64(sum&(1<<63-1)) / (1 << 63)
	if f == 1 {
		// Float64 resamples when rounding reaches 1; that needs the
		// source's later words, so ask the real one.
		return rand.New(rand.NewSource(seed)).Float64()
	}
	return f
}

// seedWord is one word of the seeded vector: the three Lehmer states
// starting jump steps after x, spliced and XORed with the cooked word.
func seedWord(x, jump, cooked int64) int64 {
	x1 := x * jump % lehmerM
	x2 := x1 * lehmerA % lehmerM
	x3 := x2 * lehmerA % lehmerM
	return (x1<<40 ^ x2<<20 ^ x3) ^ cooked
}
