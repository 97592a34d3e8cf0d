package authbcast

import (
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
)

// runHosts executes the registered fuzz target under the engine and
// returns the result with the processes the factory built.
func runHosts(t *testing.T, p hom.Params, gst int, adv engine.Adversary) (*engine.Result, []engine.Process) {
	t.Helper()
	proto, ok := protoreg.Get("authbcast")
	if !ok {
		t.Fatal("authbcast is not registered")
	}
	if ok, why := proto.Constructible(p); !ok {
		t.Fatalf("%v not constructible: %s", p, why)
	}
	factory, err := proto.New(p)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]hom.Value, p.N)
	for i := range inputs {
		inputs[i] = hom.Value(i % 2)
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

// TestFuzzTargetHoldsProposition6 runs the registered host inside the
// claimed region (l > 3t) against a Byzantine holder that floods forged
// inits and echoes for every value and drops messages before GST: the
// checker must find Correctness, Unforgeability and Relay intact.
func TestFuzzTargetHoldsProposition6(t *testing.T) {
	proto, _ := protoreg.Get("authbcast")
	p := hom.Params{N: 6, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}
	if ok, why := proto.Claims(p); !ok {
		t.Fatalf("claim withheld inside l > 3t: %s", why)
	}
	if ok, _ := proto.VerdictFaults(p, 1, 0); !ok {
		t.Fatal("claim withheld with byz = t and no faults")
	}
	if ok, _ := proto.VerdictFaults(p, 1, 1); ok {
		t.Fatal("claim kept with byz + faulted > t")
	}
	adv := &adversary.Composite{
		Selector: adversary.OnePerIdentifier{2},
		Behavior: adversary.ValueFlood{
			Domain: []hom.Value{0, 1, 7},
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
		h := procs[s].(*protoreg.BroadcastHost)
		accepts += len(h.Log)
		if _, decided := h.Decision(); decided {
			t.Fatal("a broadcast host decided")
		}
	}
	if accepts == 0 {
		t.Fatal("no host accepted anything")
	}

	below := hom.Params{N: 4, L: 3, T: 1, Synchrony: hom.PartiallySynchronous}
	if ok, _ := proto.Claims(below); ok {
		t.Fatal("claim made at l = 3t")
	}
	if ok, _ := proto.Constructible(hom.Params{N: 4, L: 2, T: 1}); ok {
		t.Fatal("l = 2t reported constructible")
	}
}
