package classical_test

import (
	"errors"
	"fmt"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/classical"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/trace"
)

// runClassical executes one classical (l = n, unique identifiers)
// instance of alg and returns the result.
func runClassical(t *testing.T, alg classical.Algorithm, inputs []hom.Value, adv engine.Adversary) *engine.Result {
	t.Helper()
	n := alg.Processes()
	p := hom.Params{N: n, L: n, T: alg.Faults(), Synchrony: hom.Synchronous}
	opts := []engine.Option{
		engine.WithParams(p),
		engine.WithAssignment(hom.RoundRobinAssignment(n, n)),
		engine.WithInputs(inputs...),
		engine.WithProcess(func(int) engine.Process { return classical.NewProcess(alg) }),
		engine.WithRounds(alg.DecisionRound() + 2),
	}
	if adv != nil {
		opts = append(opts, engine.WithAdversary(adv))
	}
	res, err := engine.Run(opts...)
	if err != nil {
		t.Fatalf("engine.Run: %v", err)
	}
	return res
}

func behaviors(seed int64) map[string]adversary.Behavior {
	return map[string]adversary.Behavior{
		"silent":     adversary.Silent{},
		"noise":      adversary.Noise{Seed: seed},
		"equivocate": adversary.Equivocate{Seed: seed},
		"mimicflood": adversary.MimicFlood{},
	}
}

func allBinaryInputs(n int) [][]hom.Value {
	var out [][]hom.Value
	for mask := 0; mask < 1<<n; mask++ {
		in := make([]hom.Value, n)
		for i := range in {
			in[i] = hom.Value((mask >> i) & 1)
		}
		out = append(out, in)
	}
	return out
}

func TestEIGConstructorValidation(t *testing.T) {
	if _, err := classical.NewEIG(3, 1, nil); !errors.Is(err, classical.ErrEIGResilience) {
		t.Fatalf("NewEIG(3,1) err = %v, want resilience error", err)
	}
	if _, err := classical.NewEIG(4, -1, nil); !errors.Is(err, classical.ErrBadFaults) {
		t.Fatalf("NewEIG(4,-1) err = %v, want fault error", err)
	}
	if _, err := classical.NewEIG(4, 1, []hom.Value{-3}); !errors.Is(err, classical.ErrBadDomain) {
		t.Fatalf("NewEIG bad domain err = %v", err)
	}
	alg, err := classical.NewEIG(4, 1, nil)
	if err != nil {
		t.Fatalf("NewEIG(4,1): %v", err)
	}
	if alg.DecisionRound() != 2 {
		t.Fatalf("EIG t=1 DecisionRound = %d, want 2", alg.DecisionRound())
	}
}

func TestPhaseKingConstructorValidation(t *testing.T) {
	if _, err := classical.NewPhaseKing(4, 1, nil); !errors.Is(err, classical.ErrPhaseKingResilience) {
		t.Fatalf("NewPhaseKing(4,1) err = %v, want resilience error", err)
	}
	alg, err := classical.NewPhaseKing(5, 1, nil)
	if err != nil {
		t.Fatalf("NewPhaseKing(5,1): %v", err)
	}
	if alg.DecisionRound() != 4 {
		t.Fatalf("PhaseKing t=1 DecisionRound = %d, want 4", alg.DecisionRound())
	}
}

func TestEIGFaultFreeAllInputs(t *testing.T) {
	alg, err := classical.NewEIG(4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, inputs := range allBinaryInputs(4) {
		res := runClassical(t, alg, inputs, nil)
		if v := trace.Check(res); !v.OK() {
			t.Fatalf("inputs %v: %s", inputs, v)
		}
	}
}

func TestEIGExhaustiveByzantineSweep(t *testing.T) {
	// l = 4, t = 1: every corrupted slot x every behavior x every input
	// combination. EIG must preserve validity+agreement+termination in
	// all of them (Theorem: classical BA solvable iff n > 3t).
	alg, err := classical.NewEIG(4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for bad := 0; bad < 4; bad++ {
		for name, beh := range behaviors(7) {
			for _, inputs := range allBinaryInputs(4) {
				adv := &adversary.Composite{
					Selector: adversary.Slots{bad},
					Behavior: beh,
				}
				res := runClassical(t, alg, inputs, adv)
				if v := trace.Check(res); !v.OK() {
					t.Fatalf("bad=%d behavior=%s inputs=%v: %s", bad, name, inputs, v)
				}
			}
		}
	}
}

func TestEIGTwoFaults(t *testing.T) {
	alg, err := classical.NewEIG(7, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if alg.DecisionRound() != 3 {
		t.Fatalf("EIG t=2 DecisionRound = %d, want 3", alg.DecisionRound())
	}
	inputs := []hom.Value{0, 1, 0, 1, 0, 1, 0}
	for name, beh := range behaviors(11) {
		adv := &adversary.Composite{
			Selector: adversary.Slots{1, 4},
			Behavior: beh,
		}
		res := runClassical(t, alg, inputs, adv)
		if v := trace.Check(res); !v.OK() {
			t.Fatalf("behavior=%s: %s", name, v)
		}
	}
}

func TestEIGMultiValuedDomain(t *testing.T) {
	alg, err := classical.NewEIG(4, 1, []hom.Value{2, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []hom.Value{5, 5, 5, 5}
	adv := &adversary.Composite{Selector: adversary.Slots{3}, Behavior: adversary.Noise{Seed: 3}}
	res := runClassical(t, alg, inputs, adv)
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("multi-valued run: %s", v)
	}
	if dv, ok := trace.DecidedValue(res); !ok || dv != 5 {
		t.Fatalf("decided %v, want unanimous 5", dv)
	}
}

func TestPhaseKingExhaustiveByzantineSweep(t *testing.T) {
	// l = 5, t = 1 (phase king needs l > 4t).
	alg, err := classical.NewPhaseKing(5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for bad := 0; bad < 5; bad++ {
		for name, beh := range behaviors(13) {
			for _, inputs := range allBinaryInputs(5) {
				adv := &adversary.Composite{
					Selector: adversary.Slots{bad},
					Behavior: beh,
				}
				res := runClassical(t, alg, inputs, adv)
				if v := trace.Check(res); !v.OK() {
					t.Fatalf("bad=%d behavior=%s inputs=%v: %s", bad, name, inputs, v)
				}
			}
		}
	}
}

func TestPhaseKingByzantineKing(t *testing.T) {
	// Corrupt the phase-1 king (identifier 1 = slot 0): agreement must
	// still be reached via the later honest-king phases.
	alg, err := classical.NewPhaseKing(9, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []hom.Value{0, 1, 0, 1, 0, 1, 0, 1, 0}
	adv := &adversary.Composite{
		Selector: adversary.Slots{0, 1}, // kings of phases 1 and 2
		Behavior: adversary.Equivocate{Seed: 5},
	}
	res := runClassical(t, alg, inputs, adv)
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("byzantine kings: %s", v)
	}
}

func TestEIGDecisionLatency(t *testing.T) {
	// The decision must land exactly at round t+1.
	for tt := 1; tt <= 2; tt++ {
		l := 3*tt + 1
		alg, err := classical.NewEIG(l, tt, nil)
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]hom.Value, l)
		res := runClassical(t, alg, inputs, nil)
		if got := trace.LatestDecisionRound(res); got != tt+1 {
			t.Fatalf("t=%d: decision at round %d, want %d", tt, got, tt+1)
		}
	}
}

func TestStateKeysAreCanonical(t *testing.T) {
	// Two processes with the same identifier and input must have
	// identical state keys after identical message sequences — the
	// property the transformation's selection rounds rely on.
	alg, err := classical.NewEIG(4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := alg.Init(2, 1)
	s2 := alg.Init(2, 1)
	if s1.Key() != s2.Key() {
		t.Fatal("identical initial states have different keys")
	}
	m := alg.Message(s1, 1)
	if m == nil {
		t.Fatal("EIG must broadcast in round 1")
	}
	if alg.Message(s2, 1).Key() != m.Key() {
		t.Fatal("identical states produce different messages")
	}
}

func TestEIGPayloadCanonicalOrder(t *testing.T) {
	a := classical.NewEIGPayload(1, []classical.EIGEntry{{Label: 2, Val: 1}, {Label: 1, Val: 0}})
	b := classical.NewEIGPayload(1, []classical.EIGEntry{{Label: 1, Val: 0}, {Label: 2, Val: 1}})
	if a.Key() != b.Key() {
		t.Fatal("entry order leaked into payload key")
	}
}

func TestClassicalBaselineMessageComplexity(t *testing.T) {
	// Sanity check the cost model: phase king moves far fewer payload
	// bytes than EIG at comparable sizes.
	eig, err := classical.NewEIG(9, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := classical.NewPhaseKing(9, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]hom.Value, 9)
	for i := range inputs {
		inputs[i] = hom.Value(i % 2)
	}
	eigRes := runClassical(t, eig, inputs, nil)
	pkRes := runClassical(t, pk, inputs, nil)
	if eigRes.Stats.PayloadBytes <= pkRes.Stats.PayloadBytes {
		t.Fatalf("expected EIG (%d bytes) to outweigh phase king (%d bytes)",
			eigRes.Stats.PayloadBytes, pkRes.Stats.PayloadBytes)
	}
}

func ExampleNewEIG() {
	alg, err := classical.NewEIG(4, 1, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(alg.Name(), "decides by round", alg.DecisionRound())
	// Output: eig decides by round 2
}
