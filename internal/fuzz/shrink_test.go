package fuzz

import "testing"

// TestShrinkTable drives the shrinker over known violating scenarios and
// pins the minimal counterexamples it must reach. The shrinker is
// deterministic, so exact fixpoints are assertable; every fixpoint is
// additionally re-run to prove it still violates the original
// properties.
func TestShrinkTable(t *testing.T) {
	cases := []struct {
		name  string
		start Scenario
		// pinned fixpoint shape
		wantN, wantL, wantT int
		wantBehavior        string
		wantProps           []string
	}{
		{
			// A noisy, randomly-selected, until-bounded adversary over a
			// stacked assignment shrinks to the bare starvation core:
			// silent FirstT, round-robin, all-zero inputs, three slots.
			name: "synchom-below-bound-reduces-to-silent",
			start: Scenario{Protocol: "synchom", N: 6, L: 2, T: 2, Assignment: "stacked",
				Inputs: []int{0, 1, 0, 1, 1, 0}, GST: 1, AdvSeed: 21,
				Selector: SelectorSpec{Kind: "random"},
				Behavior: BehaviorSpec{Kind: "noise", Until: 9},
				Drops:    DropSpec{Kind: "none"}},
			wantN: 3, wantL: 2, wantT: 2,
			wantBehavior: "silent",
			wantProps:    []string{"termination"},
		},
		{
			// The echo-forgery scenario shrinks to the minimal l = 3t
			// tuple; the value-flood behavior is load-bearing and must
			// survive shrinking.
			name: "authbcast-forgery-keeps-valueflood",
			start: Scenario{Protocol: "authbcast", N: 7, L: 3, T: 1, Assignment: "roundrobin",
				Inputs: []int{0, 0, 0, 0, 0, 0, 0}, GST: 1, AdvSeed: 9,
				Selector: SelectorSpec{Kind: "first"},
				Behavior: BehaviorSpec{Kind: "valueflood"},
				Drops:    DropSpec{Kind: "none"}},
			wantN: 3, wantL: 3, wantT: 1,
			wantBehavior: "valueflood",
			wantProps:    []string{"bcast-unforgeability"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := Run(tc.start, Options{})
			if orig.Class != ClassExpected {
				t.Fatalf("start scenario: class %s (%s), want expected-violation", orig.Class, orig.Detail)
			}
			shrunk, runs := Shrink(orig, 300)
			if runs == 0 || shrunk == nil {
				t.Fatal("shrinker did not run")
			}
			sc := shrunk.Scenario
			if sc.N != tc.wantN || sc.L != tc.wantL || sc.T != tc.wantT {
				t.Errorf("shrunk to n=%d l=%d t=%d, want n=%d l=%d t=%d",
					sc.N, sc.L, sc.T, tc.wantN, tc.wantL, tc.wantT)
			}
			if sc.Behavior.Kind != tc.wantBehavior {
				t.Errorf("shrunk behavior %q, want %q", sc.Behavior.Kind, tc.wantBehavior)
			}
			// The fixpoint must still violate: replay it from scratch.
			re := Run(sc, Options{})
			if re.Class != ClassExpected || !re.ViolatesAtLeast(tc.wantProps) {
				t.Errorf("shrunk scenario no longer violates %v: class=%s props=%v",
					tc.wantProps, re.Class, re.Properties)
			}
			// And it must be minimal: no listed simplification applies.
			for _, cand := range candidates(sc) {
				o := Run(cand, Options{})
				if o.Class == orig.Class && o.ViolatesAtLeast(orig.Properties) {
					t.Errorf("not a fixpoint: %s still violates", describe(cand))
				}
			}
		})
	}
}

// TestShrinkPreservesClassification: shrinking an expected violation can
// never surface as a real one (the class is part of the acceptance
// predicate).
func TestShrinkPreservesClassification(t *testing.T) {
	start := Scenario{Protocol: "numbcast", N: 7, L: 1, T: 3, Numerate: true, Restricted: false,
		Assignment: "roundrobin", Inputs: []int{0, 0, 0, 0, 0, 0, 0}, GST: 1, AdvSeed: 13,
		Selector: SelectorSpec{Kind: "first"}, Behavior: BehaviorSpec{Kind: "valueflood"}, Drops: DropSpec{Kind: "none"}}
	orig := Run(start, Options{})
	if orig.Class != ClassExpected {
		t.Fatalf("start: class %s, want expected-violation", orig.Class)
	}
	shrunk, _ := Shrink(orig, 300)
	if shrunk.Class != ClassExpected {
		t.Fatalf("shrunk class %s, want expected-violation", shrunk.Class)
	}
	if !shrunk.ViolatesAtLeast(orig.Properties) {
		t.Fatalf("shrunk lost properties: %v -> %v", orig.Properties, shrunk.Properties)
	}
}

// TestShrinkRejectsNonViolations: OK outcomes are not shrinkable.
func TestShrinkRejectsNonViolations(t *testing.T) {
	o := Run(Scenario{Protocol: "synchom", N: 4, L: 4, T: 1, Assignment: "roundrobin",
		Inputs: []int{0, 0, 0, 0}, GST: 1,
		Selector: SelectorSpec{Kind: "first"}, Behavior: BehaviorSpec{Kind: "silent"}, Drops: DropSpec{Kind: "none"}}, Options{})
	if o.Class != ClassOK {
		t.Fatalf("class %s, want ok", o.Class)
	}
	if shrunk, runs := Shrink(o, 100); shrunk != nil || runs != 0 {
		t.Fatalf("Shrink on an OK outcome ran %d times", runs)
	}
}
