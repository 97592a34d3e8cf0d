//go:build !race

package psynchom_test

import (
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/hom"
	"homonyms/internal/psynchom"
	"homonyms/internal/trace"
)

// figure5AllocCeiling is the allocations of one warm Figure-5 execution
// in the shape below, plus 10 %. The race detector makes sync.Pool drop
// items, so the count only repeats without it.
const figure5AllocCeiling = 1310

// TestFigure5AllocationCeiling runs the benchmark's psync_boundary_n16
// shape — n = 16, ℓ = 13, t = 3, GST 9, one equivocator on each of
// identifiers 1..3 — and counts the allocations of an execution after a
// first one has warmed the pools.
func TestFigure5AllocationCeiling(t *testing.T) {
	p := params(16, 13, 3)
	a := hom.RoundRobinAssignment(p.N, p.L)
	inputs := make([]hom.Value, p.N)
	for i := range inputs {
		inputs[i] = hom.Value(i % 2)
	}
	execute := func() {
		adv := &adversary.Composite{
			Selector: adversary.OnePerIdentifier{1, 2, 3},
			Behavior: adversary.Equivocate{Seed: 1},
		}
		if v := trace.Check(run(t, p, a, inputs, adv, 9, psynchom.Options{})); !v.OK() {
			t.Fatalf("%s", v)
		}
	}
	allocs := testing.AllocsPerRun(3, execute) // after one warm-up execution
	t.Logf("%.0f allocations per execution (ceiling %d)", allocs, figure5AllocCeiling)
	if allocs > figure5AllocCeiling {
		t.Fatalf("one Figure-5 execution allocated %.0f times, above the ceiling of %d", allocs, figure5AllocCeiling)
	}
}
