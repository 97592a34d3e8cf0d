package psynchom_test

import (
	"errors"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/psynchom"
	"homonyms/internal/trace"
)

func params(n, l, t int) hom.Params {
	return hom.Params{N: n, L: l, T: t, Synchrony: hom.PartiallySynchronous}
}

func run(t *testing.T, p hom.Params, a hom.Assignment, inputs []hom.Value,
	adv engine.Adversary, gst int, opts psynchom.Options) *engine.Result {
	t.Helper()
	factory, err := psynchom.New(p, opts)
	if err != nil {
		t.Fatalf("psynchom.New: %v", err)
	}
	eopts := []engine.Option{
		engine.WithParams(p),
		engine.WithAssignment(a),
		engine.WithInputs(inputs...),
		engine.WithProcess(factory),
		engine.WithGST(gst),
		engine.WithRounds(psynchom.SuggestedMaxRounds(p, gst)),
	}
	if adv != nil {
		eopts = append(eopts, engine.WithAdversary(adv))
	}
	res, err := engine.Run(eopts...)
	if err != nil {
		t.Fatalf("engine.Run: %v", err)
	}
	return res
}

func TestNewValidation(t *testing.T) {
	// 2l <= n+3t must be rejected: the paper's Figure-4 bound.
	if _, err := psynchom.New(params(5, 4, 1), psynchom.Options{}); !errors.Is(err, psynchom.ErrCondition) {
		t.Fatalf("n=5 l=4 t=1 err = %v, want ErrCondition", err)
	}
	if _, err := psynchom.New(hom.Params{N: 4, L: 4, T: 1, Synchrony: hom.Synchronous}, psynchom.Options{}); !errors.Is(err, psynchom.ErrSynchrony) {
		t.Fatalf("synchronous params err = %v, want ErrSynchrony", err)
	}
	if _, err := psynchom.New(params(4, 4, 1), psynchom.Options{}); err != nil {
		t.Fatalf("n=4 l=4 t=1: %v", err)
	}
}

func TestClassicalFaultFree(t *testing.T) {
	// n = l = 4 (the paper's anomaly-boundary configuration that works).
	p := params(4, 4, 1)
	a := hom.RoundRobinAssignment(4, 4)
	inputs := []hom.Value{1, 0, 1, 1}
	res := run(t, p, a, inputs, nil, 1, psynchom.Options{})
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("%s", v)
	}
}

func TestHomonymsFaultFree(t *testing.T) {
	// n = 6, l = 5, t = 1: 2l = 10 > 9 = n+3t. One identifier doubled.
	p := params(6, 5, 1)
	for seed := int64(0); seed < 6; seed++ {
		a := hom.RandomAssignment(6, 5, seed)
		inputs := make([]hom.Value, 6)
		for i := range inputs {
			inputs[i] = hom.Value((i + int(seed)) % 2)
		}
		res := run(t, p, a, inputs, nil, 1, psynchom.Options{})
		if v := trace.Check(res); !v.OK() {
			t.Fatalf("seed %d: %s", seed, v)
		}
	}
}

func TestValidityUnanimous(t *testing.T) {
	p := params(6, 5, 1)
	a := hom.StackedAssignment(6, 5)
	for _, val := range []hom.Value{0, 1} {
		inputs := make([]hom.Value, 6)
		for i := range inputs {
			inputs[i] = val
		}
		adv := &adversary.Composite{
			Selector: adversary.Slots{3},
			Behavior: adversary.Equivocate{Seed: 5},
			Drops:    adversary.RandomDrops{Seed: 9, Prob: 0.4},
		}
		res := run(t, p, a, inputs, adv, 17, psynchom.Options{})
		if v := trace.Check(res); !v.OK() {
			t.Fatalf("unanimous %d: %s", val, v)
		}
		if dv, _ := trace.DecidedValue(res); dv != val {
			t.Fatalf("unanimous %d: decided %d", val, dv)
		}
	}
}

func TestByzantineBehaviorSweep(t *testing.T) {
	p := params(6, 5, 1)
	a := hom.StackedAssignment(6, 5) // identifier 1 doubled (slots 0, 1)
	inputs := []hom.Value{0, 1, 0, 1, 0, 1}
	behaviors := map[string]adversary.Behavior{
		"silent":     adversary.Silent{},
		"noise":      adversary.Noise{Seed: 3},
		"equivocate": adversary.Equivocate{Seed: 3},
		"mimicflood": adversary.MimicFlood{},
	}
	for name, beh := range behaviors {
		for bad := 0; bad < 6; bad++ {
			adv := &adversary.Composite{Selector: adversary.Slots{bad}, Behavior: beh}
			res := run(t, p, a, inputs, adv, 1, psynchom.Options{})
			if v := trace.Check(res); !v.OK() {
				t.Fatalf("behavior=%s bad=%d: %s", name, bad, v)
			}
		}
	}
}

func TestByzantineHomonymLeader(t *testing.T) {
	// The Byzantine process shares identifier 1 (the phase-0 leader
	// identifier) with a correct process: the correct homonym must still
	// terminate — this exercises the decide-relay mechanism.
	p := params(6, 5, 1)
	a := hom.StackedAssignment(6, 5)
	inputs := []hom.Value{0, 1, 0, 1, 0, 1}
	adv := &adversary.Composite{
		Selector: adversary.OnePerIdentifier{1},
		Behavior: adversary.Equivocate{Seed: 11},
	}
	res := run(t, p, a, inputs, adv, 1, psynchom.Options{})
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("%s", v)
	}
	// Slot 1 is the correct homonym of the Byzantine slot 0.
	if res.DecidedAt[1] == 0 {
		t.Fatal("correct homonym of the Byzantine leader did not decide")
	}
}

func TestDropsBeforeGST(t *testing.T) {
	// Heavy random drops until GST; the algorithm must still decide
	// (possibly only after stabilisation).
	p := params(6, 5, 1)
	a := hom.RandomAssignment(6, 5, 3)
	inputs := []hom.Value{1, 0, 1, 0, 1, 0}
	for _, prob := range []float64{0.3, 0.7, 1.0} {
		adv := &adversary.Composite{
			Selector: adversary.Slots{2},
			Behavior: adversary.Silent{},
			Drops:    adversary.RandomDrops{Seed: 7, Prob: prob},
		}
		res := run(t, p, a, inputs, adv, 33, psynchom.Options{})
		if v := trace.Check(res); !v.OK() {
			t.Fatalf("prob=%.1f: %s", prob, v)
		}
	}
}

func TestPartitionHealsAfterGST(t *testing.T) {
	// Split the correct processes into two halves until GST: no decision
	// can cross the cut, but after stabilisation agreement must emerge.
	p := params(6, 5, 1)
	a := hom.StackedAssignment(6, 5)
	inputs := []hom.Value{0, 0, 0, 1, 1, 1}
	adv := &adversary.Composite{
		Selector: adversary.Slots{5},
		Behavior: adversary.Silent{},
		Drops: adversary.PartitionDrops{GroupOf: func(slot int) int {
			if slot < 3 {
				return 0
			}
			return 1
		}},
	}
	res := run(t, p, a, inputs, adv, 41, psynchom.Options{})
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("%s", v)
	}
}

func TestDecisionWithinLeaderRotation(t *testing.T) {
	// After GST, a decision must land within the suggested budget (every
	// identifier leads within l phases).
	p := params(4, 4, 1)
	a := hom.RoundRobinAssignment(4, 4)
	inputs := []hom.Value{0, 1, 1, 0}
	adv := &adversary.Composite{
		Selector: adversary.Slots{3},
		Behavior: adversary.MimicFlood{},
	}
	res := run(t, p, a, inputs, adv, 1, psynchom.Options{})
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("%s", v)
	}
	if got := trace.LatestDecisionRound(res); got > psynchom.SuggestedMaxRounds(p, 1) {
		t.Fatalf("decision at round %d beyond budget", got)
	}
}

func TestLargerSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("larger system skipped in -short mode")
	}
	// n = 11, l = 9, t = 2: 2l = 18 > 17 = n+3t.
	p := params(11, 9, 2)
	a := hom.RandomAssignment(11, 9, 19)
	inputs := make([]hom.Value, 11)
	for i := range inputs {
		inputs[i] = hom.Value(i % 2)
	}
	adv := &adversary.Composite{
		Selector: adversary.RandomT{Seed: 23},
		Behavior: adversary.Equivocate{Seed: 23},
		Drops:    adversary.RandomDrops{Seed: 23, Prob: 0.5},
	}
	res := run(t, p, a, inputs, adv, 25, psynchom.Options{})
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("%s", v)
	}
}

func TestLeaderIDRotation(t *testing.T) {
	if psynchom.LeaderID(0, 4) != 1 || psynchom.LeaderID(3, 4) != 4 || psynchom.LeaderID(4, 4) != 1 {
		t.Fatal("LeaderID rotation incorrect")
	}
}

func TestAblationOptionsStillSolveEasyCases(t *testing.T) {
	// Sanity: the ablated variants still work in benign runs (their
	// failures are adversarial, demonstrated in the attacks package).
	p := params(4, 4, 1)
	a := hom.RoundRobinAssignment(4, 4)
	inputs := []hom.Value{1, 1, 1, 1}
	for _, opts := range []psynchom.Options{
		{DisableVote: true},
		{DisableDecideRelay: true},
	} {
		res := run(t, p, a, inputs, nil, 1, opts)
		if v := trace.Check(res); !v.OK() {
			t.Fatalf("opts %+v: %s", opts, v)
		}
	}
}
