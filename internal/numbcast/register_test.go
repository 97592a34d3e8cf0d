package numbcast

import (
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
	"homonyms/internal/trace"
)

// runHosts executes the registered fuzz target under the engine, with a
// round-robin assignment and alternating inputs, and returns the result
// with the processes the factory built.
func runHosts(t *testing.T, p hom.Params, gst int, adv engine.Adversary) (*engine.Result, []engine.Process) {
	t.Helper()
	proto, _ := protoreg.Get("numbcast")
	if ok, why := proto.Constructible(p); !ok {
		t.Fatalf("%v not constructible: %s", p, why)
	}
	factory, err := proto.New(p)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]hom.Value, p.N)
	for i := range inputs {
		inputs[i] = hom.Value(i / p.L % 2)
	}
	procs := make([]engine.Process, p.N)
	opts := []engine.Option{
		engine.WithParams(p),
		engine.WithAssignment(hom.RoundRobinAssignment(p.N, p.L)),
		engine.WithInputs(inputs...),
		engine.WithProcess(func(slot int) engine.Process {
			procs[slot] = factory(slot)
			return procs[slot]
		}),
		engine.WithGST(gst),
		engine.WithRounds(proto.Rounds(p, gst)),
	}
	if adv != nil {
		opts = append(opts, engine.WithAdversary(adv))
	}
	res, err := engine.Run(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res, procs
}

// TestFuzzTargetHoldsAppendixA31 runs the registered host in the claimed
// region (numerate, restricted, n > 3t), with homonym groups of two and
// three, against a Byzantine holder flooding forged bundles and drops
// before GST: the checker must find Correctness, Unforgeability and Relay
// intact. The same system with innumerate receivers collapses each
// group's identical bundles to one copy, and the checker must report
// accepts below the true multiplicity.
func TestFuzzTargetHoldsAppendixA31(t *testing.T) {
	proto, _ := protoreg.Get("numbcast")
	p := hom.Params{N: 7, L: 3, T: 2, Synchrony: hom.PartiallySynchronous, Numerate: true, RestrictedByzantine: true}
	if ok, why := proto.Claims(p); !ok {
		t.Fatalf("claim withheld inside n > 3t: %s", why)
	}
	adv := &adversary.Composite{
		Selector: adversary.Slots{3},
		Behavior: adversary.ValueFlood{
			Domain: []hom.Value{0, 1},
			Make:   func(round int, v hom.Value) []msg.Payload { return proto.Forge(p, round, v) },
		},
		Drops: adversary.RandomDrops{Seed: 3, Prob: 0.4},
	}
	res, procs := runHosts(t, p, 5, adv)
	if verdict := proto.Verdict(res, procs); !verdict.OK() {
		t.Fatalf("inside the claimed region: %s", verdict)
	}
	accepts := 0
	for _, s := range res.CorrectSlots() {
		accepts += len(procs[s].(*fuzzHost).log)
	}
	if accepts == 0 {
		t.Fatal("no host accepted anything")
	}

	innumerate := p
	innumerate.Numerate = false
	if ok, _ := proto.Claims(innumerate); ok {
		t.Fatal("claim made for innumerate receivers")
	}
	res, procs = runHosts(t, innumerate, 1, nil)
	if verdict := proto.Verdict(res, procs); !verdict.Has(trace.BroadcastCorrectness) {
		t.Fatalf("innumerate receivers counted homonyms' copies: %s", verdict)
	}
	if ok, _ := proto.Constructible(hom.Params{N: 4, L: 2, T: 2}); ok {
		t.Fatal("n = 2t reported constructible")
	}
}
