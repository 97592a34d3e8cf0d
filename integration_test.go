// Cross-module integration tests: full paper scenarios driven through the
// public façade and the engine, asserting the end-to-end behaviour the
// examples and tools rely on.
package homonyms_test

import (
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/core"
	"homonyms/internal/hom"
	"homonyms/internal/trace"
)

// TestAllSolvableVariantsEndToEnd runs one adversarial instance through
// the façade for each Table-1 variant at representative sizes.
func TestAllSolvableVariantsEndToEnd(t *testing.T) {
	cases := []struct {
		name string
		p    hom.Params
		gst  int
	}{
		{"sync-minimal", hom.Params{N: 4, L: 4, T: 1, Synchrony: hom.Synchronous}, 1},
		{"sync-homonyms", hom.Params{N: 9, L: 4, T: 1, Synchrony: hom.Synchronous}, 1},
		{"sync-t2", hom.Params{N: 11, L: 7, T: 2, Synchrony: hom.Synchronous}, 1},
		{"psync-minimal", hom.Params{N: 4, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}, 9},
		{"psync-homonyms", hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}, 17},
		{"numerate-two-ids", hom.Params{N: 7, L: 2, T: 1, Synchrony: hom.PartiallySynchronous,
			Numerate: true, RestrictedByzantine: true}, 9},
		{"numerate-sync", hom.Params{N: 7, L: 3, T: 2, Synchrony: hom.Synchronous,
			Numerate: true, RestrictedByzantine: true}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inputs := make([]hom.Value, tc.p.N)
			for i := range inputs {
				inputs[i] = hom.Value(i % 2)
			}
			adv := &adversary.Composite{
				Selector: adversary.RandomT{Seed: 99},
				Behavior: adversary.Equivocate{Seed: 99},
			}
			if tc.p.Synchrony == hom.PartiallySynchronous && !tc.p.RestrictedByzantine {
				adv.Drops = adversary.RandomDrops{Seed: 99, Prob: 0.4}
			}
			res, err := core.Run(core.Config{
				Params:    tc.p,
				Inputs:    inputs,
				Adversary: adv,
				GST:       tc.gst,
			})
			if err != nil {
				t.Fatalf("core.Run: %v", err)
			}
			if !res.Verdict.OK() {
				t.Fatalf("%s", res.Verdict)
			}
		})
	}
}

// TestAnonymousModelUnsolvable checks the l = 1 extreme (Okun's
// observation cited in the paper's introduction): fully anonymous
// Byzantine agreement is impossible for any t >= 1.
func TestAnonymousModelUnsolvable(t *testing.T) {
	for n := 4; n <= 8; n++ {
		p := hom.Params{N: n, L: 1, T: 1, Synchrony: hom.Synchronous}
		if p.Solvable() {
			t.Fatalf("anonymous system n=%d claimed solvable", n)
		}
		if _, err := core.Select(p); err == nil {
			t.Fatalf("Select accepted the anonymous model at n=%d", n)
		}
	}
	// ... while with t = 0 even the anonymous model is trivially fine.
	p := hom.Params{N: 4, L: 1, T: 0, Synchrony: hom.Synchronous}
	if !p.Solvable() {
		t.Fatal("fault-free anonymous agreement should be solvable")
	}
}

// TestClassicalModelMatchesKnownBounds checks the l = n extreme against
// the classical literature: n > 3t solvable in both timing models.
func TestClassicalModelMatchesKnownBounds(t *testing.T) {
	for _, sync := range []hom.Synchrony{hom.Synchronous, hom.PartiallySynchronous} {
		for n := 4; n <= 10; n++ {
			for tt := 1; tt < n; tt++ {
				p := hom.Params{N: n, L: n, T: tt, Synchrony: sync}
				want := n > 3*tt
				if got := p.Solvable(); got != want {
					t.Fatalf("classical l=n: n=%d t=%d %s solvable=%v, want %v", n, tt, sync, got, want)
				}
			}
		}
	}
}

// TestDecisionLatencyShapes spot-checks the shapes EXPERIMENTS.md claims.
func TestDecisionLatencyShapes(t *testing.T) {
	// T(EIG) decision round is 3(t+1)+2 regardless of l.
	for _, l := range []int{4, 6, 9} {
		p := hom.Params{N: 9, L: l, T: 1, Synchrony: hom.Synchronous}
		inputs := make([]hom.Value, p.N)
		res, err := core.Run(core.Config{Params: p, Inputs: inputs})
		if err != nil {
			t.Fatal(err)
		}
		if got := trace.LatestDecisionRound(res.Sim); got != 8 {
			t.Fatalf("T(EIG) l=%d decided at round %d, want 8", l, got)
		}
	}
	// Figure-5 latency grows when GST is pushed out.
	lat := func(gst int) int {
		p := hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}
		inputs := []hom.Value{0, 1, 0, 1, 0, 1}
		res, err := core.Run(core.Config{
			Params: p,
			Inputs: inputs,
			Adversary: &adversary.Composite{
				Drops: adversary.RandomDrops{Seed: 1, Prob: 1.0},
			},
			GST: gst,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verdict.OK() {
			t.Fatalf("gst=%d: %s", gst, res.Verdict)
		}
		return trace.LatestDecisionRound(res.Sim)
	}
	if lat(33) <= lat(1) {
		t.Fatal("pushing GST out did not delay the decision")
	}
}
