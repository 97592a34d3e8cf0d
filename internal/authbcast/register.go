package authbcast

import (
	"fmt"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
	"homonyms/internal/trace"
)

// This file registers the broadcast primitive itself as a fuzz target.
// The host process below (re)broadcasts its input every superround and
// logs every Accept; the checker then verifies Proposition 6's three
// properties — Correctness, Unforgeability, Relay — against the ground
// truth the omniscient harness knows (assignment, inputs, corrupted
// slots, GST). Inside the claimed region l > 3t a violation is a real
// bug; between construction floor and claim (2t < l <= 3t) violations
// are expected lower-bound demonstrations.

// fuzzValue is the broadcast body the fuzz host sends: a bare value.
type fuzzValue struct{ V hom.Value }

// Key implements msg.Payload.
func (f fuzzValue) Key() string { return msg.ScratchKey(f) }

// BuildKey implements msg.ScratchKeyer.
func (f fuzzValue) BuildKey(kb *msg.KeyBuilder) { kb.Reset("abfuzz").Value(f.V) }

// hostAccept is one logged Accept with the round it was performed in.
type hostAccept struct {
	Accept
	Round int
}

// fuzzHost drives one Broadcaster inside the simulation engine.
type fuzzHost struct {
	ctx engine.Context
	bc  *Broadcaster
	log []hostAccept
}

var _ engine.Process = (*fuzzHost)(nil)

// Init implements engine.Process. The broadcaster is built without New's
// l > 3t check: probing below the bound is the point.
func (h *fuzzHost) Init(ctx engine.Context) {
	h.ctx = ctx
	h.bc = newBroadcaster(ctx.Params.L, ctx.Params.T)
}

// Release implements engine.Releaser: the engines call it when the execution
// ends, returning the broadcaster's arena to the shared pool.
func (h *fuzzHost) Release() { h.bc.Release() }

// Prepare implements engine.Process.
func (h *fuzzHost) Prepare(round int) []msg.Send {
	if IsInitRound(round) {
		h.bc.Broadcast(fuzzValue{V: h.ctx.Input})
	}
	// Outgoing's buffer is the broadcaster's; the engine keeps the sends
	// for the round.
	return append([]msg.Send(nil), h.bc.Outgoing(round)...)
}

// Receive implements engine.Process.
func (h *fuzzHost) Receive(round int, in *msg.Inbox) {
	for _, a := range h.bc.Ingest(round, in.Delta()) {
		h.log = append(h.log, hostAccept{Accept: a, Round: round})
	}
}

// Decision implements engine.Process. Hosts never decide: the primitive has
// no decision semantics, and the checker ignores termination.
func (h *fuzzHost) Decision() (hom.Value, bool) { return hom.NoValue, false }

// acceptedBy reports whether the host logged an Accept of (body, id, sr)
// at or before the given round.
func (h *fuzzHost) acceptedBy(bodyKey string, id hom.Identifier, sr, byRound int) bool {
	for _, a := range h.log {
		if a.Round <= byRound && a.ID == id && a.SR == sr && a.Body.Key() == bodyKey {
			return true
		}
	}
	return false
}

// stabSuperround returns the first superround whose init round is at or
// after the execution's GST — the T of Proposition 6's statements.
func stabSuperround(gst int) int { return (gst + 2) / 2 }

// check verifies Correctness, Unforgeability and Relay over a finished
// host execution. Like trace.Check it reports at most one violation per
// property, so verdicts stay small under heavy breakage.
func check(res *engine.Result, procs []engine.Process) trace.Verdict {
	var verdict trace.Verdict
	correct := res.CorrectSlots()
	hosts := make(map[int]*fuzzHost, len(correct))
	for _, s := range correct {
		if h, ok := procs[s].(*fuzzHost); ok {
			hosts[s] = h
		}
	}
	stab := stabSuperround(res.GST)
	lastFull := res.Rounds / 2

	// Ground truth: which identifiers have an untrusted holder, and which
	// values each identifier's correct holders broadcast. Faulted slots
	// (injected crash/omission faults) count as untrusted like Byzantine
	// ones: a crashed holder did broadcast before its window, so accepts
	// under its identifier are legitimate, not forgeries.
	byzID := make(map[hom.Identifier]bool)
	for _, s := range res.Corrupted {
		byzID[res.Assignment[s]] = true
	}
	for _, s := range res.Faulted {
		byzID[res.Assignment[s]] = true
	}
	correctBodies := make(map[hom.Identifier]map[string]bool)
	for _, s := range correct {
		id := res.Assignment[s]
		if correctBodies[id] == nil {
			correctBodies[id] = make(map[string]bool)
		}
		correctBodies[id][fuzzValue{V: res.Inputs[s]}.Key()] = true
	}

	// hostSlots are the correct slots with a host, in ascending order, so
	// every scan below (and therefore the first reported violation) is
	// deterministic.
	var hostSlots []int
	for _, s := range correct {
		if hosts[s] != nil {
			hostSlots = append(hostSlots, s)
		}
	}

	// Correctness: every stabilised broadcast is accepted by every
	// correct process within its superround.
correctness:
	for sr := stab; sr <= lastFull; sr++ {
		for _, s := range correct {
			key := fuzzValue{V: res.Inputs[s]}.Key()
			id := res.Assignment[s]
			for _, q := range hostSlots {
				if !hosts[q].acceptedBy(key, id, sr, 2*sr) {
					verdict.Violations = append(verdict.Violations, trace.Violation{
						Property: trace.BroadcastCorrectness,
						Detail: fmt.Sprintf("slot %d did not accept (value %d, identifier %d) broadcast in stabilised superround %d",
							q, res.Inputs[s], id, sr),
					})
					break correctness
				}
			}
		}
	}

	// Unforgeability: no accept under an all-correct identifier for a
	// value its holders never broadcast.
unforgeability:
	for _, q := range hostSlots {
		for _, a := range hosts[q].log {
			if byzID[a.ID] {
				continue
			}
			if !correctBodies[a.ID][a.Body.Key()] {
				verdict.Violations = append(verdict.Violations, trace.Violation{
					Property: trace.BroadcastUnforgeability,
					Detail: fmt.Sprintf("slot %d accepted forged message %q under all-correct identifier %d (superround %d)",
						q, a.Body.Key(), a.ID, a.SR),
				})
				break unforgeability
			}
		}
	}

	// Relay: an accept at one correct process reaches every correct
	// process by superround max(r+1, stab).
relay:
	for _, q := range hostSlots {
		for _, a := range hosts[q].log {
			deadline := Superround(a.Round) + 1
			if deadline < stab {
				deadline = stab
			}
			if 2*deadline > res.Rounds {
				continue // deadline beyond the budget: not checkable
			}
			for _, q2 := range hostSlots {
				if !hosts[q2].acceptedBy(a.Body.Key(), a.ID, a.SR, 2*deadline) {
					verdict.Violations = append(verdict.Violations, trace.Violation{
						Property: trace.BroadcastRelay,
						Detail: fmt.Sprintf("slot %d accepted (%q, identifier %d) in superround %d but slot %d had not by superround %d",
							q, a.Body.Key(), a.ID, Superround(a.Round), q2, deadline),
					})
					break relay
				}
			}
		}
	}
	return verdict
}

func init() {
	protoreg.Register(protoreg.Protocol{
		Name: "authbcast",
		Claims: func(p hom.Params) (bool, string) {
			if p.L > 3*p.T {
				return true, fmt.Sprintf("l = %d > 3t = %d (Proposition 6)", p.L, 3*p.T)
			}
			return false, fmt.Sprintf("l = %d <= 3t = %d: echo thresholds forgeable", p.L, 3*p.T)
		},
		ClaimsFaults: func(p hom.Params, byz, faulted int) (bool, string) {
			// Proposition 6 counts Byzantine holders; a crashed or
			// omitting holder withholds echoes, which the l > 3t echo
			// threshold already absorbs for up to t arbitrary failures.
			return protoreg.DefaultClaimsFaults(p, byz, faulted)
		},
		Constructible: func(p hom.Params) (bool, string) {
			if p.L <= 2*p.T {
				return false, "echo threshold l-2t must be positive"
			}
			return true, "ok"
		},
		New: func(p hom.Params) (func(slot int) engine.Process, error) {
			return func(int) engine.Process { return &fuzzHost{} }, nil
		},
		Rounds: func(p hom.Params, gst int) int {
			// GST prefix, then six full superrounds: enough for a
			// stabilised correctness superround plus every relay deadline.
			return gst + 12
		},
		Check: check,
		Forge: func(p hom.Params, round int, v hom.Value) []msg.Payload {
			sr := Superround(round)
			body := fuzzValue{V: v}
			out := []msg.Payload{InitPayload{Body: body}}
			for id := 1; id <= p.L; id++ {
				out = append(out, EchoPayload{Body: body, SR: sr, ID: hom.Identifier(id)})
			}
			return out
		},
	})
}
