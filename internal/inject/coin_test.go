package inject

import "testing"

// TestLinkCoinSeparatesLinks holds the coin to separate links at the
// scale the counting engine runs: at n > 10 007 the links (f, t + 10 007)
// and (f + 1, t) of one round are different links and must flip
// different coins, as must a slot past 2¹⁸ drawn one round later — two
// shapes a linear mix of the arguments folds onto one value.
func TestLinkCoinSeparatesLinks(t *testing.T) {
	const n = 20_000
	for i := 0; i < 10_000; i++ {
		seed, round := int64(i%7)-3, 1+i%40
		from, to := (i*7919)%(n-1), (i*104_729)%(n-10_007)
		if LinkCoin(seed, round, from, to+10_007) == LinkCoin(seed, round, from+1, to) {
			t.Fatalf("seed %d round %d: links (%d, %d) and (%d, %d) flip the same coin",
				seed, round, from, to+10_007, from+1, to)
		}
		if Draw(seed, StreamEquivocate, round, from, to) == Draw(seed, StreamEquivocate, round+1, from^1<<18, to) {
			t.Fatalf("seed %d: slot %d in round %d draws what slot %d draws in round %d",
				seed, from, round, from^1<<18, round+1)
		}
	}
}

// TestDrawArgumentsAndMaps holds each argument of Draw to moving the
// draw, and Float and Intn to their ranges over the extremes of a word.
func TestDrawArgumentsAndMaps(t *testing.T) {
	base := Draw(1, StreamLink, 2, 3, 4)
	for name, d := range map[string]uint64{
		"seed":   Draw(2, StreamLink, 2, 3, 4),
		"stream": Draw(1, StreamSelect, 2, 3, 4),
		"round":  Draw(1, StreamLink, 3, 3, 4),
		"slot":   Draw(1, StreamLink, 2, 4, 4),
		"k":      Draw(1, StreamLink, 2, 3, 5),
	} {
		if d == base {
			t.Errorf("changing %s left the draw at %#x", name, d)
		}
	}
	for _, u := range []uint64{0, 1, 1<<63 - 1, 1 << 63, 1<<64 - 1, base} {
		if f := Float(u); f < 0 || f >= 1 {
			t.Errorf("Float(%#x) = %v, outside [0, 1)", u, f)
		}
		for _, n := range []int{1, 2, 36, 1 << 40} {
			if k := Intn(u, n); k < 0 || k >= n {
				t.Errorf("Intn(%#x, %d) = %d, outside [0, %d)", u, n, k, n)
			}
		}
	}
	if Intn(1<<64-1, 36) != 35 || Intn(0, 36) != 0 {
		t.Error("Intn does not map the extreme words to the extreme values")
	}
}
