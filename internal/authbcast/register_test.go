package authbcast

import (
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
	"homonyms/internal/trace"
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
		h := procs[s].(*fuzzHost)
		accepts += len(h.log)
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

// TestCheckReportsEachProperty feeds the checker hand-built accept logs
// that break exactly one of Proposition 6's properties each. System:
// four slots with identifiers 1, 2, 3, 3, inputs 0, 1, 0, 1, slot 3
// Byzantine (so identifier 3 is untrusted), GST 1, six rounds.
func TestCheckReportsEachProperty(t *testing.T) {
	base := func() (*engine.Result, []*fuzzHost) {
		res := &engine.Result{
			Params:     hom.Params{N: 4, L: 3, T: 1, Synchrony: hom.PartiallySynchronous},
			Assignment: hom.Assignment{1, 2, 3, 3},
			Inputs:     []hom.Value{0, 1, 0, 1},
			Corrupted:  []int{3},
			Decisions:  make([]hom.Value, 4),
			Rounds:     6,
			GST:        1,
		}
		hosts := []*fuzzHost{{}, {}, {}}
		// A clean history: every correct broadcast of every superround is
		// accepted by every host within the superround.
		for _, h := range hosts {
			for sr := 1; sr <= 3; sr++ {
				for s := 0; s < 3; s++ {
					h.log = append(h.log, hostAccept{
						Accept: Accept{ID: res.Assignment[s], Body: fuzzValue{V: res.Inputs[s]}, SR: sr},
						Round:  2 * sr,
					})
				}
			}
		}
		return res, hosts
	}
	verdictOf := func(res *engine.Result, hosts []*fuzzHost) trace.Verdict {
		return check(res, []engine.Process{hosts[0], hosts[1], hosts[2], nil})
	}

	res, hosts := base()
	if v := verdictOf(res, hosts); !v.OK() {
		t.Fatalf("clean history: %s", v)
	}

	// Correctness: host 1 never accepts slot 0's superround-2 broadcast.
	res, hosts = base()
	kept := hosts[1].log[:0]
	for _, a := range hosts[1].log {
		if !(a.ID == 1 && a.SR == 2) {
			kept = append(kept, a)
		}
	}
	hosts[1].log = kept
	if v := verdictOf(res, hosts); !v.Has(trace.BroadcastCorrectness) {
		t.Fatalf("missing accept not reported as a correctness violation: %s", v)
	}

	// Unforgeability: a value identifier 1's only (correct) holder never
	// broadcast is accepted under identifier 1 — everywhere, so relay holds.
	res, hosts = base()
	for _, h := range hosts {
		h.log = append(h.log, hostAccept{Accept: Accept{ID: 1, Body: fuzzValue{V: 9}, SR: 1}, Round: 2})
	}
	if v := verdictOf(res, hosts); !v.Has(trace.BroadcastUnforgeability) || v.Has(trace.BroadcastRelay) {
		t.Fatalf("forged accept under an all-correct identifier: %s", v)
	}

	// Relay: only host 0 accepts a message of the untrusted identifier 3
	// (no forgery there), and nobody else has by the next superround. The
	// same accept made in the last superround has no checkable deadline.
	res, hosts = base()
	hosts[0].log = append(hosts[0].log, hostAccept{Accept: Accept{ID: 3, Body: fuzzValue{V: 9}, SR: 1}, Round: 2})
	if v := verdictOf(res, hosts); !v.Has(trace.BroadcastRelay) || v.Has(trace.BroadcastUnforgeability) {
		t.Fatalf("unrelayed accept: %s", v)
	}
	res, hosts = base()
	hosts[0].log = append(hosts[0].log, hostAccept{Accept: Accept{ID: 3, Body: fuzzValue{V: 9}, SR: 3}, Round: 6})
	if v := verdictOf(res, hosts); !v.OK() {
		t.Fatalf("accept past the last checkable deadline: %s", v)
	}

	// A faulted holder makes its identifier untrusted like a Byzantine one.
	res, hosts = base()
	res.Faulted = []int{0}
	for _, h := range hosts {
		h.log = append(h.log, hostAccept{Accept: Accept{ID: 1, Body: fuzzValue{V: 9}, SR: 1}, Round: 2})
	}
	if v := check(res, []engine.Process{nil, hosts[1], hosts[2], nil}); !v.OK() {
		t.Fatalf("accept under a faulted holder's identifier: %s", v)
	}
}
