package synchom

import (
	"fmt"
	"math/rand"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/classical"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// countedAlg counts the transitions its wrapped algorithm computes.
type countedAlg struct {
	classical.Algorithm
	calls int
}

func (a *countedAlg) Transition(s classical.State, round int, received []msg.Message) classical.State {
	a.calls++
	return a.Algorithm.Transition(s, round, received)
}

// rootRun is a phase-1 running-round payload reporting input v; each call
// builds a fresh body, so only key equality can match two of them.
func rootRun(v hom.Value, extra ...classical.EIGEntry) runPayload {
	entries := append([]classical.EIGEntry{{Label: classical.RootLabel, Val: v}}, extra...)
	return runPayload{phase: 1, body: classical.NewEIGPayload(0, entries)}
}

func TestSuccessorSharedWithinLineage(t *testing.T) {
	eig, err := classical.NewEIG(4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	alg := &countedAlg{Algorithm: eig}
	p := hom.Params{N: 8, L: 4, T: 1, Synchrony: hom.Synchronous}
	factory, err := New(alg, p)
	if err != nil {
		t.Fatal(err)
	}
	a := factory(0).(*Process)
	a.Init(engine.Context{ID: 2, Input: 1, Params: p})
	b := a.CloneProcess().(*Process)
	c := a.CloneProcess().(*Process)
	const running = RoundsPerPhase // phase 1's running round

	// a and b receive different raw inboxes — identifier 3 equivocates
	// differently in each — that filter to the same messages.
	a.Receive(running, msg.NewInbox(false, []msg.Message{
		{ID: 1, Body: rootRun(0)}, {ID: 2, Body: rootRun(1)},
		{ID: 3, Body: rootRun(0)}, {ID: 3, Body: rootRun(1)},
		{ID: 4, Body: rootRun(1)},
	}))
	b.Receive(running, msg.NewInbox(false, []msg.Message{
		{ID: 1, Body: rootRun(0)}, {ID: 2, Body: rootRun(1)},
		{ID: 3, Body: rootRun(0)}, {ID: 3, Body: rootRun(1)}, {ID: 3, Body: rootRun(0, classical.EIGEntry{Label: 5, Val: 1})},
		{ID: 4, Body: rootRun(1)},
	}))
	if alg.calls != 1 {
		t.Fatalf("two clones with equal filtered messages made %d transitions, want 1", alg.calls)
	}
	if a.state.Key() != b.state.Key() {
		t.Fatalf("shared successor diverged:\n %s\n %s", a.state.Key(), b.state.Key())
	}

	// c sees identifier 4 report 0 instead: a different set, a new δ.
	c.Receive(running, msg.NewInbox(false, []msg.Message{
		{ID: 1, Body: rootRun(0)}, {ID: 2, Body: rootRun(1)}, {ID: 4, Body: rootRun(0)},
	}))
	if alg.calls != 2 {
		t.Fatalf("a different filtered set made %d transitions in all, want 2", alg.calls)
	}
	if c.state.Key() == a.state.Key() {
		t.Fatal("different filtered sets reached one state")
	}

	// An empty inbox leaves the EIG state's key as it was in phase 1,
	// but phase 2 is the decision round: the record of phase 1 must not
	// answer for it.
	x := factory(0).(*Process)
	x.Init(engine.Context{ID: 1, Input: 0, Params: p})
	before := alg.calls
	x.Receive(running, msg.NewInbox(false, nil))
	x.Receive(2*RoundsPerPhase, msg.NewInbox(false, nil))
	if alg.calls != before+2 {
		t.Fatalf("two phases made %d transitions, want 2", alg.calls-before)
	}
	if alg.Decide(x.state) == hom.NoValue {
		t.Fatal("phase 2 reused phase 1's successor: no decision at the decision round")
	}
}

// TestSuccessorSharingMatchesConcrete runs the counting_byz benchmark
// shape at n = 256 — one equivocating slot among eight identifiers, so
// the counting classes split on raw inboxes every running round — and
// requires the collapsed execution, which shares successors, to equal
// the one-class-per-slot execution, which cannot.
func TestSuccessorSharingMatchesConcrete(t *testing.T) {
	p := hom.Params{N: 256, L: 8, T: 1, Synchrony: hom.Synchronous}
	for seed := int64(1); seed <= 4; seed++ {
		inputs := make([]hom.Value, p.N)
		for i := range inputs {
			inputs[i] = hom.Value(i % 2)
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
		run := func(rep engine.StateRep) *engine.Result {
			alg, err := classical.NewEIG(p.L, p.T, nil)
			if err != nil {
				t.Fatal(err)
			}
			factory, err := New(alg, p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run(
				engine.WithParams(p),
				engine.WithAssignment(hom.RoundRobinAssignment(p.N, p.L)),
				engine.WithInputs(inputs...),
				engine.WithProcess(factory),
				engine.WithRounds(Rounds(alg)+RoundsPerPhase),
				engine.WithAdversary(&adversary.Composite{
					Selector: adversary.OnePerIdentifier{1},
					Behavior: adversary.Equivocate{Seed: seed},
				}),
				engine.WithStateRep(rep),
			)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		concrete, counting := run(engine.Concrete()), run(engine.Counting())
		key := func(r *engine.Result) string {
			return fmt.Sprintf("%v|%v|%v|%d|%+v", r.Decisions, r.DecidedAt, r.AllDecided, r.Rounds, r.Stats)
		}
		if key(counting) != key(concrete) {
			t.Fatalf("seed %d: counting diverged from concrete:\n concrete: %s\n counting: %s",
				seed, key(concrete), key(counting))
		}
		if !counting.AllDecided {
			t.Fatalf("seed %d: not every correct slot decided", seed)
		}
	}
}
