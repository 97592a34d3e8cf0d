package core_test

import (
	"errors"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/core"
	"homonyms/internal/hom"
)

func TestSelectRejectsInvalidParams(t *testing.T) {
	if _, err := core.Select(hom.Params{N: 1, L: 1, T: 0, Synchrony: hom.Synchronous}); err == nil {
		t.Fatal("Select accepted invalid params")
	}
}

func TestSelectUnsolvableWrapsReason(t *testing.T) {
	p := hom.Params{N: 5, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}
	_, err := core.Select(p)
	if err == nil {
		t.Fatal("Select accepted unsolvable params")
	}
	if !errors.Is(err, core.ErrUnsolvable) || !errors.Is(err, hom.ErrUnsolvable) {
		t.Fatalf("error %v does not match ErrUnsolvable", err)
	}
}

func TestSelectPrefersNumerateAlgorithm(t *testing.T) {
	// In the restricted+numerate model the Figure-7 algorithm must be
	// selected even when the Figure-5 condition would also hold.
	p := hom.Params{N: 4, L: 4, T: 1, Synchrony: hom.PartiallySynchronous,
		Numerate: true, RestrictedByzantine: true}
	sel, err := core.Select(p)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if sel.Algorithm != core.AlgNumerate {
		t.Fatalf("Algorithm = %s, want %s", sel.Algorithm, core.AlgNumerate)
	}
}

func TestRunDefaultsAssignmentAndBudget(t *testing.T) {
	p := hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous}
	inputs := make([]hom.Value, 7)
	res, err := core.Run(core.Config{Params: p, Inputs: inputs})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Verdict.OK() || !res.Decided || res.Decision != 0 {
		t.Fatalf("defaults run failed: %s decided=%v %d", res.Verdict, res.Decided, res.Decision)
	}
	// Round-robin default assignment must have been applied.
	if res.Sim.Assignment[0] != 1 || res.Sim.Assignment[4] != 1 {
		t.Fatalf("unexpected default assignment %v", res.Sim.Assignment)
	}
}

func TestRunCustomDomain(t *testing.T) {
	p := hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous, Domain: []hom.Value{3, 8}}
	inputs := []hom.Value{8, 3, 8, 3, 8, 3, 8}
	res, err := core.Run(core.Config{
		Params: p,
		Inputs: inputs,
		Adversary: &adversary.Composite{
			Selector: adversary.Slots{2},
			Behavior: adversary.Equivocate{Seed: 9},
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Verdict.OK() {
		t.Fatalf("%s", res.Verdict)
	}
	if res.Decision != 3 && res.Decision != 8 {
		t.Fatalf("decision %d outside the domain", res.Decision)
	}
}

func TestRunRejectsBadInputCount(t *testing.T) {
	p := hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous}
	if _, err := core.Run(core.Config{Params: p, Inputs: []hom.Value{0, 1}}); err == nil {
		t.Fatal("Run accepted wrong input count")
	}
}

func TestRunUnanimousBothValues(t *testing.T) {
	p := hom.Params{N: 7, L: 2, T: 1, Synchrony: hom.PartiallySynchronous,
		Numerate: true, RestrictedByzantine: true}
	for _, v := range []hom.Value{0, 1} {
		res, err := core.RunUnanimous(p, v, nil, 1)
		if err != nil {
			t.Fatalf("RunUnanimous(%d): %v", v, err)
		}
		if res.Decision != v {
			t.Fatalf("RunUnanimous(%d) decided %d", v, res.Decision)
		}
	}
}

// TestRunUnanimousRejectsInvalidParams: invalid parameters fail with
// Validate's typed error before the inputs are sized, instead of
// panicking on a negative n.
func TestRunUnanimousRejectsInvalidParams(t *testing.T) {
	p := hom.Params{N: -3, L: 1}
	if _, err := core.RunUnanimous(p, 0, nil, 1); !errors.Is(err, hom.ErrTooFewProcesses) {
		t.Fatalf("RunUnanimous(n=-3) = %v, want %v", err, hom.ErrTooFewProcesses)
	}
}

func TestSolvableReExports(t *testing.T) {
	p := hom.Params{N: 4, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}
	if !core.Solvable(p) {
		t.Fatal("Solvable re-export disagrees")
	}
	if core.SolvabilityReason(p) == "" {
		t.Fatal("empty solvability reason")
	}
}

// TestFacadeDecidesEveryTable1Cell is the façade's contract with Table 1:
// over every switch combination, n <= 6, t in {0, 1} and every valid l,
// a Solvable tuple decides through Run with an OK verdict under a
// round-robin assignment, mixed inputs and random drops before GST 9,
// and every other tuple fails with ErrUnsolvable.
func TestFacadeDecidesEveryTable1Cell(t *testing.T) {
	for variant := 0; variant < 8; variant++ {
		for n := 2; n <= 6; n++ {
			for f := 0; f <= 1; f++ {
				for l := 1; l <= n; l++ {
					p := hom.Params{N: n, L: l, T: f, Synchrony: hom.Synchronous,
						Numerate: variant&2 != 0, RestrictedByzantine: variant&4 != 0}
					if variant&1 != 0 {
						p.Synchrony = hom.PartiallySynchronous
					}
					if p.Validate() != nil {
						continue
					}
					inputs := make([]hom.Value, n)
					for i := range inputs {
						inputs[i] = hom.Value(i % 2)
					}
					res, err := core.Run(core.Config{
						Params:    p,
						Inputs:    inputs,
						Adversary: &adversary.Composite{Drops: adversary.RandomDrops{Seed: int64(n*10 + l), Prob: 0.5}},
						GST:       9,
					})
					switch {
					case !p.Solvable():
						if !errors.Is(err, core.ErrUnsolvable) {
							t.Errorf("%v (%s): err = %v, want ErrUnsolvable", p, p.SolvabilityReason(), err)
						}
					case err != nil:
						t.Errorf("%v (%s): %v", p, p.SolvabilityReason(), err)
					case !res.Verdict.OK() || !res.Decided:
						t.Errorf("%v via %s: %s, decided=%v", p, res.Algorithm, res.Verdict, res.Decided)
					}
				}
			}
		}
	}
}
