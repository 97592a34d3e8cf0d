package inject

import "math/rand"

// LinkCoin is the one coin every probabilistic link condition flips: a
// uniform draw in [0, 1) that is a pure function of (seed, round, from,
// to). adversary.RandomDrops, Omission and Delay all compare it against
// their Prob, so the verdict function cannot drift between the adversary
// and the injector; the draw itself is pinned by a golden-value test
// (committed fuzz seeds and the benchmark's digests depend on it).
// Callers keep their cheap endpoint and window checks ahead of it:
// seeding the throwaway source is the expensive part.
func LinkCoin(seed int64, round, from, to int) float64 {
	h := int64(round)*1_000_003 + int64(from)*10_007 + int64(to)
	return rand.New(rand.NewSource(seed ^ h)).Float64()
}
