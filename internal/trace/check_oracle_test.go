package trace_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/trace"
)

// correctSlots lists the slots neither corrupted nor faulted, asking
// about each slot on its own.
func correctSlots(res *engine.Result) []int {
	var out []int
	for s := range res.Inputs {
		if !res.IsCorrupted(s) && !res.IsFaulted(s) {
			out = append(out, s)
		}
	}
	return out
}

// naiveCheck is the property check written as one plain walk over the
// correct slots, every property evaluated at every slot: the oracle
// Check's fused pass is held to.
func naiveCheck(res *engine.Result) trace.Verdict {
	var verdict trace.Verdict
	firstVal, firstSlot := hom.NoValue, -1
	agreeSlot := -1
	proposed, haveProposal := hom.NoValue, false
	unanimous := true
	validSlot := -1
	for _, s := range correctSlots(res) {
		if !haveProposal {
			proposed, haveProposal = res.Inputs[s], true
		}
		if res.Inputs[s] != proposed {
			unanimous = false
		}
		if res.DecidedAt[s] == 0 {
			verdict.Violations = append(verdict.Violations, trace.Violation{
				Property: trace.Termination,
				Detail: fmt.Sprintf("slot %d (identifier %d) undecided after %d rounds",
					s, res.Assignment[s], res.Rounds),
			})
			continue
		}
		if firstSlot < 0 {
			firstVal, firstSlot = res.Decisions[s], s
		} else if agreeSlot < 0 && res.Decisions[s] != firstVal {
			agreeSlot = s
		}
		if validSlot < 0 && res.Decisions[s] != proposed {
			validSlot = s
		}
	}
	if agreeSlot >= 0 {
		verdict.Violations = append(verdict.Violations, trace.Violation{
			Property: trace.Agreement,
			Detail: fmt.Sprintf("slot %d decided %d but slot %d decided %d",
				firstSlot, firstVal, agreeSlot, res.Decisions[agreeSlot]),
		})
	}
	if unanimous && validSlot >= 0 {
		verdict.Violations = append(verdict.Violations, trace.Violation{
			Property: trace.Validity,
			Detail: fmt.Sprintf("all correct processes proposed %d but slot %d decided %d",
				proposed, validSlot, res.Decisions[validSlot]),
		})
	}
	return verdict
}

// naiveLatest and naiveDecided are LatestDecisionRound and DecidedValue
// over correctSlots, slot by slot.
func naiveLatest(res *engine.Result) int {
	latest := 0
	for _, s := range correctSlots(res) {
		latest = max(latest, res.DecidedAt[s])
	}
	return latest
}

func naiveDecided(res *engine.Result) (hom.Value, bool) {
	v := hom.NoValue
	for _, s := range correctSlots(res) {
		if res.DecidedAt[s] == 0 {
			continue
		}
		if v == hom.NoValue {
			v = res.Decisions[s]
		} else if v != res.Decisions[s] {
			return hom.NoValue, false
		}
	}
	return v, v != hom.NoValue
}

// Shapes genResult forces on top of its random draw.
const (
	shapeRandom = iota
	shapeUndecidedPrefix
	shapeDisagreeAfterUndecided
	shapeValidityBreach
	shapeNoCorrect
	shapes
)

// genResult draws one finished execution: n in 0..300, corrupted and
// faulted slots scattered at a random density (so correct runs have
// random gaps), inputs unanimous or mixed, and decisions mostly on one
// common value with scattered undecided and dissenting slots — then
// forces the given shape.
func genResult(rng *rand.Rand, shape int) *engine.Result {
	n := rng.Intn(301)
	if shape != shapeNoCorrect && n == 0 {
		n = 1 + rng.Intn(300)
	}
	res := &engine.Result{
		Params:     hom.Params{N: n, L: 1 + rng.Intn(4)},
		Assignment: make(hom.Assignment, n),
		Inputs:     make([]hom.Value, n),
		Decisions:  make([]hom.Value, n),
		DecidedAt:  make([]int, n),
		Rounds:     1 + rng.Intn(30),
	}
	density := []float64{0, 0.02, 0.2, 0.6}[rng.Intn(4)]
	undecided := []float64{0, 0, 0.01, 0.3}[rng.Intn(4)]
	dissent := []float64{0, 0, 0.005, 0.2}[rng.Intn(4)]
	proposal, common := hom.Value(rng.Intn(3)), hom.Value(rng.Intn(3))
	unanimous := rng.Intn(2) == 0
	for s := 0; s < n; s++ {
		res.Assignment[s] = hom.Identifier(s%res.Params.L + 1)
		switch r := rng.Float64(); {
		case shape == shapeNoCorrect || r < density/2:
			if rng.Intn(2) == 0 {
				res.Corrupted = append(res.Corrupted, s)
			} else {
				res.Faulted = append(res.Faulted, s)
			}
		case r < density:
			res.Faulted = append(res.Faulted, s)
		}
		res.Inputs[s] = proposal
		if !unanimous {
			res.Inputs[s] = hom.Value(rng.Intn(2))
		}
		res.Decisions[s], res.DecidedAt[s] = common, 1+rng.Intn(res.Rounds)
		switch r := rng.Float64(); {
		case r < undecided:
			res.Decisions[s], res.DecidedAt[s] = hom.NoValue, 0
		case r < undecided+dissent:
			// A dissenter may even report NoValue as its decision.
			res.Decisions[s] = common + hom.Value(rng.Intn(4)) - 1
			if res.Decisions[s] == common {
				res.Decisions[s] = hom.NoValue
			}
		}
	}
	correct := correctSlots(res)
	if len(correct) == 0 {
		return res
	}
	switch shape {
	case shapeUndecidedPrefix, shapeDisagreeAfterUndecided:
		k := 1 + rng.Intn(len(correct))
		for _, s := range correct[:k] {
			res.Decisions[s], res.DecidedAt[s] = hom.NoValue, 0
		}
		if shape == shapeDisagreeAfterUndecided && k+1 < len(correct) {
			first, other := correct[k], correct[k+1+rng.Intn(len(correct)-k-1)]
			res.Decisions[first], res.DecidedAt[first] = common, 1
			res.Decisions[other], res.DecidedAt[other] = common+1, 1
		}
	case shapeValidityBreach:
		for _, s := range correct {
			res.Inputs[s] = proposal
		}
		s := correct[rng.Intn(len(correct))]
		res.Decisions[s], res.DecidedAt[s] = proposal+1, 1
	}
	return res
}

// TestCheckMatchesNaive holds Check, LatestDecisionRound and
// DecidedValue to their slot-by-slot oracles over generated executions:
// identical verdicts, texts and order included.
func TestCheckMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	seen := make(map[trace.Property]int)
	noCorrect := 0
	for i := 0; i < 2500; i++ {
		res := genResult(rng, i%shapes)
		want, got := naiveCheck(res), trace.Check(res)
		if !reflect.DeepEqual(got, want) || got.String() != want.String() {
			t.Fatalf("case %d (shape %d, n=%d):\n got  %s\n want %s", i, i%shapes, len(res.Inputs), got, want)
		}
		if got, want := trace.LatestDecisionRound(res), naiveLatest(res); got != want {
			t.Fatalf("case %d: LatestDecisionRound = %d, want %d", i, got, want)
		}
		gv, gok := trace.DecidedValue(res)
		if wv, wok := naiveDecided(res); gv != wv || gok != wok {
			t.Fatalf("case %d: DecidedValue = %d, %v, want %d, %v", i, gv, gok, wv, wok)
		}
		for _, p := range want.Properties() {
			seen[p]++
		}
		if len(correctSlots(res)) == 0 {
			noCorrect++
		}
	}
	for _, p := range []trace.Property{trace.Validity, trace.Agreement, trace.Termination} {
		if seen[p] < 50 {
			t.Errorf("only %d generated executions violate %s", seen[p], p)
		}
	}
	if noCorrect < 50 {
		t.Errorf("only %d generated executions have no correct slot", noCorrect)
	}
}

// TestCheckPassingAllocatesNothing pins that a passing check at
// n = 10^5 allocates nothing.
func TestCheckPassingAllocatesNothing(t *testing.T) {
	const n = 100_000
	res := result(make([]hom.Value, n), make([]hom.Value, n), make([]int, n), []int{7, 50_000})
	for s := range res.DecidedAt {
		res.DecidedAt[s] = 3
	}
	res.Faulted = []int{8, 99_999}
	var v trace.Verdict
	if allocs := testing.AllocsPerRun(10, func() { v = trace.Check(res) }); allocs != 0 {
		t.Fatalf("passing Check allocated %.0f times, want 0", allocs)
	}
	if !v.OK() {
		t.Fatalf("clean run flagged: %s", v)
	}
}
