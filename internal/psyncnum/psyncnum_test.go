package psyncnum_test

import (
	"errors"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/psyncnum"
	"homonyms/internal/trace"
)

func params(n, l, t int, sync hom.Synchrony) hom.Params {
	return hom.Params{
		N: n, L: l, T: t,
		Synchrony:           sync,
		Numerate:            true,
		RestrictedByzantine: true,
	}
}

func run(t *testing.T, p hom.Params, a hom.Assignment, inputs []hom.Value,
	adv engine.Adversary, gst int) *engine.Result {
	t.Helper()
	factory, err := psyncnum.New(p)
	if err != nil {
		t.Fatalf("psyncnum.New: %v", err)
	}
	opts := []engine.Option{
		engine.WithParams(p),
		engine.WithAssignment(a),
		engine.WithInputs(inputs...),
		engine.WithProcess(factory),
		engine.WithGST(gst),
		engine.WithRounds(psyncnum.SuggestedMaxRounds(p, gst)),
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

func TestNewValidation(t *testing.T) {
	if _, err := psyncnum.New(params(6, 2, 2, hom.PartiallySynchronous)); !errors.Is(err, psyncnum.ErrResilience) {
		t.Fatalf("n=6 t=2 err = %v, want ErrResilience", err)
	}
	if _, err := psyncnum.New(params(7, 2, 2, hom.PartiallySynchronous)); !errors.Is(err, psyncnum.ErrIdentifier) {
		t.Fatalf("l=t err = %v, want ErrIdentifier", err)
	}
	noNum := params(7, 3, 2, hom.PartiallySynchronous)
	noNum.Numerate = false
	if _, err := psyncnum.New(noNum); !errors.Is(err, psyncnum.ErrModel) {
		t.Fatalf("innumerate err = %v, want ErrModel", err)
	}
	unrestricted := params(7, 3, 2, hom.PartiallySynchronous)
	unrestricted.RestrictedByzantine = false
	if _, err := psyncnum.New(unrestricted); !errors.Is(err, psyncnum.ErrModel) {
		t.Fatalf("unrestricted err = %v, want ErrModel", err)
	}
	if _, err := psyncnum.New(params(7, 3, 2, hom.PartiallySynchronous)); err != nil {
		t.Fatalf("n=7 l=3 t=2: %v", err)
	}
}

func TestTinyIdentifierSpaceFaultFree(t *testing.T) {
	// The headline capability: l = t+1 identifiers, far below 3t+1.
	// n = 7, t = 2, l = 3: huge homonym groups.
	p := params(7, 3, 2, hom.PartiallySynchronous)
	a := hom.RoundRobinAssignment(7, 3)
	inputs := []hom.Value{0, 1, 0, 1, 0, 1, 0}
	res := run(t, p, a, inputs, nil, 1)
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("%s", v)
	}
}

func TestMinimumIdentifiers(t *testing.T) {
	// l = t+1 = 2 with n = 7, t = 1: only two identifiers for seven
	// processes.
	p := params(7, 2, 1, hom.PartiallySynchronous)
	a := hom.RoundRobinAssignment(7, 2)
	inputs := []hom.Value{1, 0, 1, 0, 1, 0, 1}
	for bad := 0; bad < 4; bad++ {
		adv := &adversary.Composite{
			Selector: adversary.Slots{bad},
			Behavior: adversary.Equivocate{Seed: int64(bad)},
		}
		res := run(t, p, a, inputs, adv, 1)
		if v := trace.Check(res); !v.OK() {
			t.Fatalf("bad=%d: %s", bad, v)
		}
	}
}

func TestValidityUnanimous(t *testing.T) {
	p := params(7, 3, 2, hom.PartiallySynchronous)
	a := hom.StackedAssignment(7, 3)
	for _, val := range []hom.Value{0, 1} {
		inputs := make([]hom.Value, 7)
		for i := range inputs {
			inputs[i] = val
		}
		adv := &adversary.Composite{
			Selector: adversary.Slots{0, 4},
			Behavior: adversary.Noise{Seed: 5},
			Drops:    adversary.RandomDrops{Seed: 5, Prob: 0.4},
		}
		res := run(t, p, a, inputs, adv, 17)
		if v := trace.Check(res); !v.OK() {
			t.Fatalf("unanimous %d: %s", val, v)
		}
		if dv, _ := trace.DecidedValue(res); dv != val {
			t.Fatalf("unanimous %d: decided %d", val, dv)
		}
	}
}

func TestRestrictedByzantineSweep(t *testing.T) {
	p := params(7, 2, 1, hom.PartiallySynchronous)
	a := hom.StackedAssignment(7, 2)
	inputs := []hom.Value{0, 1, 1, 0, 1, 0, 1}
	behaviors := map[string]adversary.Behavior{
		"silent":     adversary.Silent{},
		"noise":      adversary.Noise{Seed: 13},
		"equivocate": adversary.Equivocate{Seed: 13},
	}
	for name, beh := range behaviors {
		for _, bad := range []int{0, 5, 6} {
			adv := &adversary.Composite{Selector: adversary.Slots{bad}, Behavior: beh}
			res := run(t, p, a, inputs, adv, 1)
			if v := trace.Check(res); !v.OK() {
				t.Fatalf("behavior=%s bad=%d: %s", name, bad, v)
			}
		}
	}
}

func TestCloneGroupsAgree(t *testing.T) {
	// All processes of one identifier share an input: their bundles are
	// identical and the multiplicity machinery must count them as copies,
	// not collapse them (that is exactly what numeracy buys).
	p := params(6, 2, 1, hom.PartiallySynchronous)
	a := hom.RoundRobinAssignment(6, 2)
	inputs := []hom.Value{0, 1, 0, 1, 0, 1} // identifier 1 all-0, identifier 2 all-1
	res := run(t, p, a, inputs, nil, 1)
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("%s", v)
	}
}

func TestDropsBeforeGST(t *testing.T) {
	p := params(7, 3, 2, hom.PartiallySynchronous)
	a := hom.RandomAssignment(7, 3, 11)
	inputs := []hom.Value{1, 0, 1, 0, 1, 0, 1}
	adv := &adversary.Composite{
		Selector: adversary.RandomT{Seed: 29},
		Behavior: adversary.Silent{},
		Drops:    adversary.RandomDrops{Seed: 29, Prob: 0.8},
	}
	res := run(t, p, a, inputs, adv, 33)
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("%s", v)
	}
}

func TestSynchronousModeToo(t *testing.T) {
	// Theorem 14: the same algorithm solves the synchronous case (a
	// synchronous run simply has no drops).
	p := params(7, 2, 1, hom.Synchronous)
	a := hom.RoundRobinAssignment(7, 2)
	inputs := []hom.Value{0, 1, 0, 1, 0, 1, 0}
	adv := &adversary.Composite{Selector: adversary.Slots{3}, Behavior: adversary.Equivocate{Seed: 7}}
	res := run(t, p, a, inputs, adv, 1)
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("%s", v)
	}
}

func TestByzantineInsideEveryGroup(t *testing.T) {
	// t = 2 Byzantine processes placed inside both identifier groups:
	// no identifier is clean... which would break liveness (l > t needs a
	// clean identifier), so place them in one group only and verify the
	// clean-group phases drive termination.
	p := params(8, 3, 2, hom.PartiallySynchronous)
	a := hom.RoundRobinAssignment(8, 3)
	inputs := []hom.Value{0, 1, 0, 1, 0, 1, 0, 1}
	// Slots 0 and 3 both hold identifier 1: identifiers 2 and 3 stay clean.
	adv := &adversary.Composite{
		Selector: adversary.Slots{0, 3},
		Behavior: adversary.Equivocate{Seed: 31},
	}
	res := run(t, p, a, inputs, adv, 1)
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("%s", v)
	}
}

func TestSuggestedBudgetSufficient(t *testing.T) {
	p := params(7, 2, 1, hom.PartiallySynchronous)
	a := hom.RoundRobinAssignment(7, 2)
	inputs := []hom.Value{1, 1, 0, 0, 1, 0, 1}
	res := run(t, p, a, inputs, nil, 9)
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("%s", v)
	}
	if got := trace.LatestDecisionRound(res); got > psyncnum.SuggestedMaxRounds(p, 9) {
		t.Fatalf("decision at %d beyond budget", got)
	}
}
