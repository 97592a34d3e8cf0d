package solvability_test

import (
	"testing"

	"homonyms/internal/explore"
	"homonyms/internal/hom"
	"homonyms/internal/solvability"
)

func TestCellSolvableSync(t *testing.T) {
	p := hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous}
	cell, err := solvability.EvaluateCell(p, solvability.DefaultSuite(), 1)
	if err != nil {
		t.Fatalf("EvaluateCell: %v", err)
	}
	if cell.Outcome != solvability.Solved {
		t.Fatalf("outcome = %s (%s), want solved", cell.Outcome, cell.Detail)
	}
	if cell.WorstDecisionRound == 0 || cell.MessagesDelivered == 0 {
		t.Fatal("positive cell recorded no cost metrics")
	}
}

func TestCellSolvablePsync(t *testing.T) {
	p := hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}
	cell, err := solvability.EvaluateCell(p, solvability.DefaultSuite(), 2)
	if err != nil {
		t.Fatalf("EvaluateCell: %v", err)
	}
	if cell.Outcome != solvability.Solved {
		t.Fatalf("outcome = %s (%s), want solved", cell.Outcome, cell.Detail)
	}
}

func TestCellSolvableNumerate(t *testing.T) {
	p := hom.Params{N: 7, L: 2, T: 1, Synchrony: hom.PartiallySynchronous,
		Numerate: true, RestrictedByzantine: true}
	cell, err := solvability.EvaluateCell(p, solvability.DefaultSuite(), 3)
	if err != nil {
		t.Fatalf("EvaluateCell: %v", err)
	}
	if cell.Outcome != solvability.Solved {
		t.Fatalf("outcome = %s (%s), want solved", cell.Outcome, cell.Detail)
	}
}

func TestCellUnsolvablePsyncPartition(t *testing.T) {
	p := hom.Params{N: 5, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}
	cell, err := solvability.EvaluateCell(p, solvability.DefaultSuite(), 4)
	if err != nil {
		t.Fatalf("EvaluateCell: %v", err)
	}
	if cell.Outcome != solvability.Violated {
		t.Fatalf("outcome = %s (%s), want violated", cell.Outcome, cell.Detail)
	}
}

// TestTZeroRowMatchesTable1 sweeps t = 0 over every variant: each cell
// agrees with hom.Params.Solvable, and each psync innumerate cell with
// 2l <= n is violated by the degenerate Figure-4 partition — each camp
// holds every identifier — which CellCost charges as an execution.
func TestTZeroRowMatchesTable1(t *testing.T) {
	quick := solvability.SuiteSize{Assignments: 1, Behaviors: 1}
	partitions := 0
	for _, v := range solvability.Variants() {
		cells, err := solvability.Matrix([]int{2, 3, 4, 5, 6}, []int{0}, v, quick, 1)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if ok, bad := solvability.Consistent(cells); !ok {
			t.Fatalf("%s: %v is %s: %s", v.Name, bad.Params, bad.Outcome, bad.Detail)
		}
		for _, c := range cells {
			if c.Expect {
				continue
			}
			if c.Outcome != solvability.Violated || solvability.CellCost(c.Params, quick) <= 1 {
				t.Fatalf("%v: %s (%s), cost %d; want violated by an execution", c.Params, c.Outcome, c.Detail, solvability.CellCost(c.Params, quick))
			}
			partitions++
		}
	}
	if partitions != 9 {
		t.Fatalf("%d unsolvable t = 0 cells at n <= 6, want the 9 psync innumerate cells with 2l <= n", partitions)
	}
}

func TestCellUnsolvableSyncCovering(t *testing.T) {
	p := hom.Params{N: 5, L: 3, T: 1, Synchrony: hom.Synchronous}
	cell, err := solvability.EvaluateCell(p, solvability.DefaultSuite(), 5)
	if err != nil {
		t.Fatalf("EvaluateCell: %v", err)
	}
	if cell.Outcome != solvability.Violated {
		t.Fatalf("outcome = %s (%s), want violated", cell.Outcome, cell.Detail)
	}
}

func TestCellUnsolvableMirror(t *testing.T) {
	p := hom.Params{N: 8, L: 2, T: 2, Synchrony: hom.Synchronous,
		Numerate: true, RestrictedByzantine: true}
	cell, err := solvability.EvaluateCell(p, solvability.DefaultSuite(), 6)
	if err != nil {
		t.Fatalf("EvaluateCell: %v", err)
	}
	if cell.Outcome != solvability.Violated {
		t.Fatalf("outcome = %s (%s), want violated", cell.Outcome, cell.Detail)
	}
}

func TestCellBelowClassicalBound(t *testing.T) {
	p := hom.Params{N: 3, L: 3, T: 1, Synchrony: hom.Synchronous}
	cell, err := solvability.EvaluateCell(p, solvability.DefaultSuite(), 7)
	if err != nil {
		t.Fatalf("EvaluateCell: %v", err)
	}
	if cell.Outcome != solvability.CoveredByBoundary {
		t.Fatalf("outcome = %s, want covered-by-boundary", cell.Outcome)
	}
}

func TestSmallMatrixConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep skipped in -short mode")
	}
	for _, v := range solvability.Variants() {
		cells, err := solvability.Matrix([]int{4, 5}, []int{1}, v,
			solvability.SuiteSize{Assignments: 1, Behaviors: 1}, 11)
		if err != nil {
			t.Fatalf("%s: Matrix: %v", v.Name, err)
		}
		if len(cells) == 0 {
			t.Fatalf("%s: empty matrix", v.Name)
		}
		if ok, bad := solvability.Consistent(cells); !ok {
			t.Fatalf("%s: cell %v mismatched Table 1: %s", v.Name, bad.Params, bad.Detail)
		}
	}
}

func TestBoundaryParamsStraddleThreshold(t *testing.T) {
	for _, v := range solvability.Variants() {
		tuples := solvability.BoundaryParams([]int{7, 10, 13}, v)
		if len(tuples) == 0 {
			t.Fatalf("variant %s: no boundary tuples", v.Name)
		}
		solvable, unsolvable := 0, 0
		for _, p := range tuples {
			if p.Validate() != nil {
				t.Fatalf("variant %s: invalid tuple %v", v.Name, p)
			}
			if p.Solvable() {
				solvable++
			} else {
				unsolvable++
			}
		}
		// The band must actually straddle the threshold: both sides
		// populated, or the test sweeps nothing interesting.
		if solvable == 0 || unsolvable == 0 {
			t.Fatalf("variant %s: boundary band one-sided (%d solvable, %d unsolvable)",
				v.Name, solvable, unsolvable)
		}
	}
}

// TestExactCellsAgreeWithTable1 holds Solvable to the bounded-exhaustive
// evidence: a verified cell must be solvable, and a cell backed by a
// counterexample or a mirror witness must not be.
func TestExactCellsAgreeWithTable1(t *testing.T) {
	for _, c := range explore.Cells() {
		if want := c.Expect == "verified"; c.Params.Solvable() != want {
			t.Errorf("cell %s %v: %s expected, but %s", c.Name, c.Params, c.Expect, c.Params.SolvabilityReason())
		}
	}
}
