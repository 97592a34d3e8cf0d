package trace_test

import (
	"strings"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/trace"
)

// result builds a synthetic execution result for verdict tests.
func result(inputs, decisions []hom.Value, decidedAt []int, corrupted []int) *engine.Result {
	n := len(inputs)
	return &engine.Result{
		Params:     hom.Params{N: n, L: n, T: len(corrupted), Synchrony: hom.Synchronous},
		Assignment: hom.RoundRobinAssignment(n, n),
		Inputs:     inputs,
		Corrupted:  corrupted,
		Decisions:  decisions,
		DecidedAt:  decidedAt,
		Rounds:     10,
		AllDecided: true,
	}
}

func TestCheckAllGood(t *testing.T) {
	res := result(
		[]hom.Value{0, 0, 0, 0},
		[]hom.Value{0, 0, 0, 0},
		[]int{3, 3, 4, 3},
		nil,
	)
	v := trace.Check(res)
	if !v.OK() {
		t.Fatalf("clean run flagged: %s", v)
	}
	if got := v.String(); !strings.Contains(got, "ok") {
		t.Fatalf("String() = %q", got)
	}
}

func TestCheckTermination(t *testing.T) {
	res := result(
		[]hom.Value{0, 1, 0, 1},
		[]hom.Value{0, 0, 0, hom.NoValue},
		[]int{3, 3, 4, 0},
		nil,
	)
	v := trace.Check(res)
	if !v.Has(trace.Termination) {
		t.Fatalf("missing termination violation: %s", v)
	}
	if v.Has(trace.Agreement) || v.Has(trace.Validity) {
		t.Fatalf("spurious violations: %s", v)
	}
}

func TestCheckAgreement(t *testing.T) {
	res := result(
		[]hom.Value{0, 1, 0, 1},
		[]hom.Value{0, 1, 0, 0},
		[]int{3, 3, 4, 3},
		nil,
	)
	v := trace.Check(res)
	if !v.Has(trace.Agreement) {
		t.Fatalf("missing agreement violation: %s", v)
	}
}

func TestCheckValidity(t *testing.T) {
	res := result(
		[]hom.Value{1, 1, 1, 1},
		[]hom.Value{1, 1, 0, 1},
		[]int{3, 3, 4, 3},
		nil,
	)
	v := trace.Check(res)
	if !v.Has(trace.Validity) {
		t.Fatalf("missing validity violation: %s", v)
	}
}

func TestCheckValidityRequiresUnanimity(t *testing.T) {
	// Mixed inputs: deciding either value is valid.
	res := result(
		[]hom.Value{1, 0, 1, 1},
		[]hom.Value{0, 0, 0, 0},
		[]int{3, 3, 4, 3},
		nil,
	)
	if v := trace.Check(res); v.Has(trace.Validity) {
		t.Fatalf("validity flagged on mixed inputs: %s", v)
	}
}

func TestCheckIgnoresCorrupted(t *testing.T) {
	// The corrupted slot's input/decision must not count: the correct
	// processes are unanimous at 1 and decide 1.
	res := result(
		[]hom.Value{0, 1, 1, 1},
		[]hom.Value{hom.NoValue, 1, 1, 1},
		[]int{0, 3, 3, 3},
		[]int{0},
	)
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("corrupted slot polluted the verdict: %s", v)
	}
}

func TestLatestDecisionRound(t *testing.T) {
	res := result(
		[]hom.Value{0, 0, 0, 0},
		[]hom.Value{0, 0, 0, 0},
		[]int{3, 9, 4, 3},
		nil,
	)
	if got := trace.LatestDecisionRound(res); got != 9 {
		t.Fatalf("LatestDecisionRound = %d, want 9", got)
	}
}

func TestDecidedValue(t *testing.T) {
	res := result(
		[]hom.Value{0, 0, 0, 0},
		[]hom.Value{1, 1, 1, 1},
		[]int{3, 3, 3, 3},
		nil,
	)
	if v, ok := trace.DecidedValue(res); !ok || v != 1 {
		t.Fatalf("DecidedValue = %d, %v", v, ok)
	}
	res.Decisions[2] = 0
	if _, ok := trace.DecidedValue(res); ok {
		t.Fatal("DecidedValue ok on disagreement")
	}
	res = result(
		[]hom.Value{0, 0},
		[]hom.Value{hom.NoValue, hom.NoValue},
		[]int{0, 0},
		nil,
	)
	if _, ok := trace.DecidedValue(res); ok {
		t.Fatal("DecidedValue ok on no decisions")
	}
}

func TestPropertyStrings(t *testing.T) {
	if trace.Validity.String() != "validity" ||
		trace.Agreement.String() != "agreement" ||
		trace.Termination.String() != "termination" {
		t.Fatal("property names changed")
	}
	viol := trace.Violation{Property: trace.Agreement, Detail: "x"}
	if viol.String() != "agreement: x" {
		t.Fatalf("Violation.String = %q", viol.String())
	}
}

func TestBroadcastPropertyNames(t *testing.T) {
	for _, p := range []trace.Property{trace.Validity, trace.Agreement, trace.Termination,
		trace.BroadcastCorrectness, trace.BroadcastUnforgeability, trace.BroadcastRelay} {
		name := p.String()
		back, ok := trace.ParseProperty(name)
		if !ok || back != p {
			t.Fatalf("ParseProperty(%q) = %v, %v", name, back, ok)
		}
	}
	if _, ok := trace.ParseProperty("nonsense"); ok {
		t.Fatal("ParseProperty accepted nonsense")
	}
}

func TestVerdictProperties(t *testing.T) {
	v := trace.Verdict{Violations: []trace.Violation{
		{Property: trace.Termination, Detail: "a"},
		{Property: trace.Agreement, Detail: "b"},
		{Property: trace.Termination, Detail: "c"},
	}}
	got := v.Properties()
	if len(got) != 2 || got[0] != trace.Agreement || got[1] != trace.Termination {
		t.Fatalf("Properties() = %v, want [agreement termination]", got)
	}
}
