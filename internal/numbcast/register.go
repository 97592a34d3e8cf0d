package numbcast

import (
	"fmt"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
	"homonyms/internal/trace"
)

// This file registers the multiplicity-broadcast primitive as a fuzz
// target, mirroring authbcast's registration but with the Appendix-A.3.1
// property statements: Correctness and Unforgeability carry multiplicity
// bounds (alpha' >= alpha, alpha' <= alpha + f_i), and the checker knows
// the true alpha of every (identifier, value) pair from the inputs. The
// claimed region is n > 3t with numerate reception and restricted
// Byzantine processes; the fuzzer probes innumerate and unrestricted
// variants where copy counting (and with it the bounds) breaks.

// fuzzValue is the broadcast body the fuzz host sends: a bare value.
type fuzzValue struct{ V hom.Value }

// Key implements msg.Payload.
func (f fuzzValue) Key() string { return msg.ScratchKey(f) }

// BuildKey implements msg.ScratchKeyer.
func (f fuzzValue) BuildKey(kb *msg.KeyBuilder) { kb.Reset("nbfuzz").Value(f.V) }

// hostAccept is one logged Accept with the round it was performed in.
type hostAccept struct {
	Accept
	Round int
}

// fuzzHost drives one Broadcaster inside the simulation engine.
type fuzzHost struct {
	ctx  engine.Context
	bc   *Broadcaster
	log  []hostAccept
	recv []Delivery // Receive's scratch
}

var _ engine.Process = (*fuzzHost)(nil)

// Init implements engine.Process. The broadcaster is built without New's
// n > 3t check: probing degenerate thresholds is allowed as long as they
// stay positive (see Constructible).
func (h *fuzzHost) Init(ctx engine.Context) {
	h.ctx = ctx
	h.bc = newBroadcaster(ctx.Params.N, ctx.Params.T)
}

// Release implements engine.Releaser: the engines call it when the execution
// ends, returning the broadcaster's arena to the shared pool.
func (h *fuzzHost) Release() { h.bc.Release() }

// Prepare implements engine.Process.
func (h *fuzzHost) Prepare(round int) []msg.Send {
	if IsInitRound(round) {
		h.bc.Broadcast(fuzzValue{V: h.ctx.Input})
	}
	if pl := h.bc.Outgoing(round); pl != nil {
		return []msg.Send{msg.Broadcast(pl)}
	}
	return nil
}

// Receive implements engine.Process: the host sends bare bundles, so each
// bundle of the inbox is one delivery.
func (h *fuzzHost) Receive(round int, in *msg.Inbox) {
	h.recv = h.recv[:0]
	for i, k := 0, in.Len(); i < k; i++ {
		if b, ok := in.BodyAt(i).(*Bundle); ok {
			h.recv = append(h.recv, Delivery{ID: in.SenderAt(i), Bundle: b, Copies: in.CountAt(i)})
		}
	}
	for _, a := range h.bc.Ingest(round, h.recv) {
		h.log = append(h.log, hostAccept{Accept: a, Round: round})
	}
}

// Decision implements engine.Process; hosts never decide.
func (h *fuzzHost) Decision() (hom.Value, bool) { return hom.NoValue, false }

// acceptedBy reports whether the host logged an Accept of (body, id, sr)
// with multiplicity at least alpha, at or before the given round.
func (h *fuzzHost) acceptedBy(bodyKey string, id hom.Identifier, sr, alpha, byRound int) bool {
	for _, a := range h.log {
		if a.Round <= byRound && a.ID == id && a.SR == sr && a.Alpha >= alpha && a.Body.Key() == bodyKey {
			return true
		}
	}
	return false
}

// check verifies the multiplicity broadcast's Correctness, Unforgeability
// and Relay over a finished host execution.
func check(res *engine.Result, procs []engine.Process) trace.Verdict {
	var verdict trace.Verdict
	correct := res.CorrectSlots()
	hosts := make(map[int]*fuzzHost, len(correct))
	var hostSlots []int
	for _, s := range correct {
		if h, ok := procs[s].(*fuzzHost); ok {
			hosts[s] = h
			hostSlots = append(hostSlots, s)
		}
	}
	stab := (res.GST + 2) / 2
	lastFull := res.Rounds / 2

	// Ground truth: alphaTrue[(id, bodyKey)] counts the correct holders
	// of id broadcasting that value (every superround), byzHolders[id]
	// the Byzantine holders (the f_i of the unforgeability bound).
	type pair struct {
		id  hom.Identifier
		key string
	}
	alphaTrue := make(map[pair]int)
	var pairs []pair // deterministic iteration order
	for _, s := range correct {
		pr := pair{res.Assignment[s], fuzzValue{V: res.Inputs[s]}.Key()}
		if alphaTrue[pr] == 0 {
			pairs = append(pairs, pr)
		}
		alphaTrue[pr]++
	}
	byzHolders := make(map[hom.Identifier]int)
	for _, s := range res.Corrupted {
		byzHolders[res.Assignment[s]]++
	}
	// Faulted slots (injected crash/omission faults) count toward f_i
	// like Byzantine holders: a holder that crashed mid-superround can
	// legitimately contribute partial multiplicity that the bound must
	// absorb rather than flag as forged.
	for _, s := range res.Faulted {
		byzHolders[res.Assignment[s]]++
	}

	// Correctness: in every stabilised superround sr, every correct
	// process accepts (i, alpha' >= alpha, m, sr) within the superround.
correctness:
	for sr := stab; sr <= lastFull; sr++ {
		for _, pr := range pairs {
			for _, q := range hostSlots {
				if !hosts[q].acceptedBy(pr.key, pr.id, sr, alphaTrue[pr], 2*sr) {
					verdict.Violations = append(verdict.Violations, trace.Violation{
						Property: trace.BroadcastCorrectness,
						Detail: fmt.Sprintf("slot %d did not accept (%q, identifier %d) with multiplicity >= %d in stabilised superround %d",
							q, pr.key, pr.id, alphaTrue[pr], sr),
					})
					break correctness
				}
			}
		}
	}

	// Unforgeability: alpha' <= alpha + f_i for every accept.
unforgeability:
	for _, q := range hostSlots {
		for _, a := range hosts[q].log {
			bound := alphaTrue[pair{a.ID, a.Body.Key()}] + byzHolders[a.ID]
			if a.Alpha > bound {
				verdict.Violations = append(verdict.Violations, trace.Violation{
					Property: trace.BroadcastUnforgeability,
					Detail: fmt.Sprintf("slot %d accepted (%q, identifier %d) with multiplicity %d > alpha+f_i = %d",
						q, a.Body.Key(), a.ID, a.Alpha, bound),
				})
				break unforgeability
			}
		}
	}

	// Relay: an accept of (i, alpha, m, r) in superround r' reaches every
	// correct process, with multiplicity at least alpha, by superround
	// max(r', stab) + 1.
relay:
	for _, q := range hostSlots {
		for _, a := range hosts[q].log {
			deadline := Superround(a.Round)
			if deadline < stab {
				deadline = stab
			}
			deadline++
			if 2*deadline > res.Rounds {
				continue // deadline beyond the budget: not checkable
			}
			for _, q2 := range hostSlots {
				if !hosts[q2].acceptedBy(a.Body.Key(), a.ID, a.SR, a.Alpha, 2*deadline) {
					verdict.Violations = append(verdict.Violations, trace.Violation{
						Property: trace.BroadcastRelay,
						Detail: fmt.Sprintf("slot %d accepted (%q, identifier %d, alpha %d) in superround %d but slot %d had not by superround %d",
							q, a.Body.Key(), a.ID, a.Alpha, Superround(a.Round), q2, deadline),
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
		Name: "numbcast",
		Claims: func(p hom.Params) (bool, string) {
			if !p.Numerate {
				return false, "multiplicity broadcast needs numerate reception"
			}
			if !p.RestrictedByzantine {
				return false, "unrestricted Byzantine processes can inflate copy counts"
			}
			if p.N <= 3*p.T {
				return false, fmt.Sprintf("n = %d <= 3t = %d", p.N, 3*p.T)
			}
			return true, fmt.Sprintf("n = %d > 3t = %d (Appendix A.3.1)", p.N, 3*p.T)
		},
		ClaimsFaults: func(p hom.Params, byz, faulted int) (bool, string) {
			// The multiplicity bound alpha+f_i counts untrusted holders;
			// crashed/omitting holders join f_i, so the n > 3t condition
			// absorbs them while byz+faulted fits t.
			return protoreg.DefaultClaimsFaults(p, byz, faulted)
		},
		Constructible: func(p hom.Params) (bool, string) {
			if p.N <= 2*p.T {
				return false, "echo threshold n-2t must be positive"
			}
			return true, "ok"
		},
		New: func(p hom.Params) (func(slot int) engine.Process, error) {
			return func(int) engine.Process { return &fuzzHost{} }, nil
		},
		Rounds: func(p hom.Params, gst int) int {
			return gst + 12
		},
		Check: check,
		Forge: func(p hom.Params, round int, v hom.Value) []msg.Payload {
			sr := Superround(round)
			body := fuzzValue{V: v}
			echoes := make([]EchoTuple, 0, p.L)
			for id := 1; id <= p.L; id++ {
				echoes = append(echoes, EchoTuple{H: hom.Identifier(id), A: p.N, Body: body, K: sr})
			}
			return []msg.Payload{NewBundle([]InitTuple{{Body: body}}, echoes)}
		},
	})
}
