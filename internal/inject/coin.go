package inject

import "math/bits"

// The streams name the piece of an execution a draw belongs to, so that
// pieces given one seed draw apart. StreamLink is shared on purpose.
const (
	StreamLink       = iota + 1 // LinkCoin: adversary.RandomDrops, Omission, Delay
	StreamSelect                // adversary.RandomT
	StreamNoise                 // adversary.Noise
	StreamEquivocate            // adversary.Equivocate and KeyEquivocate
	StreamScenario              // fuzz: a campaign's per-scenario seeds
)

// Draw is the one source of randomness inside an execution: a uniform
// word that is a pure function of (seed, stream, round, slot, k),
// splitmix64's finaliser chained over the arguments. Each step is a
// bijection, so distinct tuples collide only by chance (2⁻⁶⁴) at any n,
// and no draw depends on the order or number of earlier ones. Committed
// fuzz seeds and the benchmark's digests depend on it (TestLinkCoinGolden).
func Draw(seed int64, stream, round, slot, k int) uint64 {
	const golden = 0x9e3779b97f4a7c15 // splitmix64's increment
	h := mix64(uint64(seed) + golden)
	for _, x := range [...]uint64{uint64(stream), uint64(round), uint64(slot), uint64(k)} {
		h = mix64((h ^ x) + golden)
	}
	return h
}

// mix64 is splitmix64's output function, a bijection.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Float maps a draw to [0, 1) from its top 53 bits.
func Float(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// Intn maps a draw to [0, n), n > 0, by the high word of u·n.
func Intn(u uint64, n int) int {
	hi, _ := bits.Mul64(u, uint64(n))
	return int(hi)
}

// LinkCoin is the one coin every probabilistic link condition flips: a
// uniform draw in [0, 1) for the delivery from → to in round. RandomDrops,
// Omission and Delay all compare it with their Prob, so the verdict cannot
// drift between the adversary and the injector.
func LinkCoin(seed int64, round, from, to int) float64 {
	return Float(Draw(seed, StreamLink, round, from, to))
}
