package adversary

import (
	"math/rand"
	"testing"
)

// TestSeededMatchesFreshSource pins the property the pooled generator
// rests on: re-seeding a used *rand.Rand yields the stream of a fresh
// rand.New(rand.NewSource(seed)), draw for draw, whatever the pooled
// generator was left holding — so every digest that depends on
// Equivocate, KeyEquivocate or Noise stays where it was. The draws mix
// the calls the behaviours make (Intn, Int63) with Read, whose buffered
// bytes Seed must also drop.
func TestSeededMatchesFreshSource(t *testing.T) {
	var buf, wantBuf [3]byte
	for i := int64(0); i < 10_000; i++ {
		seed := i*0x9e3779b97f4a7c + i<<18 ^ 7
		want := rand.New(rand.NewSource(seed))
		got := seeded(seed)
		for d := 0; d < 64; d++ {
			switch d % 3 {
			case 0:
				if g, w := got.Intn(1000), want.Intn(1000); g != w {
					t.Fatalf("seed %d draw %d: Intn %d, fresh source %d", seed, d, g, w)
				}
			case 1:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d, fresh source %d", seed, d, g, w)
				}
			default:
				got.Read(buf[:])
				want.Read(wantBuf[:])
				if buf != wantBuf {
					t.Fatalf("seed %d draw %d: Read %v, fresh source %v", seed, d, buf, wantBuf)
				}
			}
		}
		rngPool.Put(got)
	}
}
