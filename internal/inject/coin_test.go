package inject

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand holds the lazy Source to the source it
// computes: draws 0–299, across the hand-over to the real source at draw
// 273, are math/rand's — Int63, Uint64 and Intn by turns, with every draw
// index read through each of them over three consecutive seeds — for the
// seed shapes the normalisation treats specially and 10⁵ generated
// seeds. A reused Source is reseeded, so the hand-over's reseed path runs
// too.
func TestSourceMatchesMathRand(t *testing.T) {
	var lazy Source
	got := rand.New(&lazy)
	check := func(seed int64, turn int) {
		t.Helper()
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for d := 0; d < 300; d++ {
			switch (d + turn) % 3 {
			case 0:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, d, g, w)
				}
			case 1:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, d, g, w)
				}
			default:
				if g, w := got.Intn(1000), want.Intn(1000); g != w {
					t.Fatalf("seed %d draw %d: Intn %d, math/rand %d", seed, d, g, w)
				}
			}
		}
	}
	const m = lehmerM
	special := []int64{
		0, 1, -1, m - 1, m, m + 1, -m, -m - 1, 2 * m, -2 * m, 89482311,
		math.MaxInt64, math.MinInt64, math.MaxInt64 / m * m, -(math.MaxInt64 / m * m),
	}
	for i, seed := range special {
		for turn := 0; turn < 3; turn++ {
			check(seed, turn+i)
		}
	}
	rng := rand.New(rand.NewSource(273))
	for i := 0; i < 100_000; i++ {
		check(rng.Int63()-rng.Int63(), i)
	}
}
