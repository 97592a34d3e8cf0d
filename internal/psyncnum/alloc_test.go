//go:build !race

package psyncnum_test

import (
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/hom"
	"homonyms/internal/trace"
)

// figure7AllocCeiling is the allocations of one warm Figure-7 execution
// in the shape below, plus 10 %. The race detector makes sync.Pool drop
// items, so the count only repeats without it.
const figure7AllocCeiling = 516

// TestFigure7AllocationCeiling runs the largest numerate cell of the
// benchmark's table1_matrix — n = 5, ℓ = 4, t = 1, synchronous — as its
// Table-1 suite first runs it (round-robin identifiers, alternating
// inputs, one equivocator drawn by RandomT, GST 1), and counts the
// allocations of an execution after a first one has warmed the pools.
func TestFigure7AllocationCeiling(t *testing.T) {
	p := params(5, 4, 1, hom.Synchronous)
	a := hom.RoundRobinAssignment(p.N, p.L)
	inputs := make([]hom.Value, p.N)
	for i := range inputs {
		inputs[i] = hom.Value(i % 2)
	}
	execute := func() {
		adv := &adversary.Composite{
			Selector: adversary.RandomT{Seed: 1},
			Behavior: adversary.Equivocate{Seed: 1},
		}
		if v := trace.Check(run(t, p, a, inputs, adv, 1)); !v.OK() {
			t.Fatalf("%s", v)
		}
	}
	allocs := testing.AllocsPerRun(3, execute) // after one warm-up execution
	t.Logf("%.0f allocations per execution (ceiling %d)", allocs, figure7AllocCeiling)
	if allocs > figure7AllocCeiling {
		t.Fatalf("one Figure-7 execution allocated %.0f times, above the ceiling of %d", allocs, figure7AllocCeiling)
	}
}
