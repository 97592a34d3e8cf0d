package protoreg

import (
	"fmt"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/trace"
)

// This file is the fuzz harness shared by the two authenticated-broadcast
// primitives. RegisterBroadcast turns a primitive's predicates, forger
// and broadcaster adapter into a registry entry with one host process,
// which broadcasts its input every init round and logs its accepts, and
// one checker of the broadcast properties against the ground truth the
// omniscient harness knows (assignment, inputs, corrupted and faulted
// slots, GST). The checker states Appendix A.3.1's Correctness (α′ ≥ α),
// Unforgeability (α′ ≤ α + f_i) and Relay; Proposition 6's are the same
// with every multiplicity α = 1, except for Relay's deadline.

// Broadcast is one broadcast primitive's registration. Name, Claims and
// Constructible are as in Protocol.
type Broadcast struct {
	Name          string
	Claims        func(p hom.Params) (bool, string)
	Constructible func(p hom.Params) (bool, string)
	// Tag is the key tag of the host's broadcast body, a bare value.
	Tag string
	// Multiplicity selects Appendix A.3.1's statements: accepts carry
	// the multiplicity the correctness and unforgeability bounds check,
	// and Relay's deadline is max(r, T)+1. Without it they are
	// Proposition 6's: every α is 1 and the deadline is max(r+1, T).
	Multiplicity bool
	// Layer builds one host's broadcaster for p. It skips the
	// primitive's resilience check: probing below the bound is the point.
	Layer func(p hom.Params) BroadcastLayer
	// Forge builds the primitive's well-formed traffic carrying body at
	// the given round.
	Forge func(p hom.Params, round int, body msg.Payload) []msg.Payload
}

// BroadcastLayer adapts a primitive's broadcaster to the shared host.
type BroadcastLayer interface {
	// Broadcast queues m to be initiated at the next init round.
	Broadcast(m msg.Payload)
	// Outgoing returns the round's sends, which the engine keeps.
	Outgoing(round int) []msg.Send
	// Ingest processes the round's inbox and appends its accepts to log.
	Ingest(round int, in *msg.Inbox, log []Accept) []Accept
	// Release returns the broadcaster's storage to its pool.
	Release()
}

// Accept is one logged Accept(i, α, m, r) and the round it happened in.
type Accept struct {
	ID    hom.Identifier
	Alpha int
	Body  msg.Payload
	SR    int
	Round int
}

// value is the host's broadcast body: a bare value under the
// primitive's tag.
type value struct {
	tag string
	v   hom.Value
}

// Key implements msg.Payload.
func (b value) Key() string { return msg.ScratchKey(b) }

// BuildKey implements msg.ScratchKeyer.
func (b value) BuildKey(kb *msg.KeyBuilder) { kb.Reset(b.tag).Value(b.v) }

// BroadcastHost drives one BroadcastLayer inside the engine: it
// broadcasts its input every init round and logs every accept.
type BroadcastHost struct {
	// Log holds the host's accepts in the order performed.
	Log   []Accept
	ctx   engine.Context
	layer BroadcastLayer
	spec  *Broadcast
}

var _ engine.Process = (*BroadcastHost)(nil)

// Init implements engine.Process.
func (h *BroadcastHost) Init(ctx engine.Context) {
	h.ctx = ctx
	h.layer = h.spec.Layer(ctx.Params)
}

// Release implements engine.Releaser: the engines call it when the
// execution ends, returning the broadcaster's storage to its pool.
func (h *BroadcastHost) Release() { h.layer.Release() }

// Prepare implements engine.Process.
func (h *BroadcastHost) Prepare(round int) []msg.Send {
	if hom.IsInitRound(round) {
		h.layer.Broadcast(value{h.spec.Tag, h.ctx.Input})
	}
	return h.layer.Outgoing(round)
}

// Receive implements engine.Process.
func (h *BroadcastHost) Receive(round int, in *msg.Inbox) {
	h.Log = h.layer.Ingest(round, in, h.Log)
}

// Decision implements engine.Process. Hosts never decide: the primitive
// has no decision semantics, and the checker ignores termination.
func (h *BroadcastHost) Decision() (hom.Value, bool) { return hom.NoValue, false }

// accepted reports whether the host logged an Accept of (body, id, sr)
// with multiplicity at least alpha, at or before the given round.
func (h *BroadcastHost) accepted(bodyKey string, id hom.Identifier, sr, alpha, byRound int) bool {
	for _, a := range h.Log {
		if a.Round <= byRound && a.ID == id && a.SR == sr && a.Alpha >= alpha && a.Body.Key() == bodyKey {
			return true
		}
	}
	return false
}

// RegisterBroadcast registers a broadcast primitive with the shared host
// and checker. The round budget is the GST prefix, then six full
// superrounds: enough for a stabilised correctness superround plus every
// relay deadline.
func RegisterBroadcast(b Broadcast) {
	Register(Protocol{
		Name:          b.Name,
		Claims:        b.Claims,
		Constructible: b.Constructible,
		New: func(hom.Params) (func(slot int) engine.Process, error) {
			return func(int) engine.Process { return &BroadcastHost{spec: &b} }, nil
		},
		Rounds: func(_ hom.Params, gst int) int { return gst + 6*hom.RoundsPerSuperround },
		Check:  b.check,
		Forge: func(p hom.Params, round int, v hom.Value) []msg.Payload {
			return b.Forge(p, round, value{b.Tag, v})
		},
	})
}

// deadline returns the superround by which an accept performed in
// superround r must have reached every correct process.
func (b *Broadcast) deadline(r, stab int) int {
	if b.Multiplicity {
		return max(r, stab) + 1
	}
	return max(r+1, stab)
}

// check verifies Correctness, Unforgeability and Relay over a finished
// host execution. Like trace.Check it reports at most one violation per
// property, so verdicts stay small under heavy breakage.
func (b *Broadcast) check(res *engine.Result, procs []engine.Process) trace.Verdict {
	var verdict trace.Verdict
	report := func(p trace.Property, format string, args ...any) {
		verdict.Violations = append(verdict.Violations, trace.Violation{Property: p, Detail: fmt.Sprintf(format, args...)})
	}
	// hosts are the correct slots' hosts in ascending slot order, so every
	// scan below (and therefore the first reported violation) is
	// deterministic.
	correct := res.CorrectSlots()
	var slots []int
	var hosts []*BroadcastHost
	for _, s := range correct {
		if h, ok := procs[s].(*BroadcastHost); ok {
			slots = append(slots, s)
			hosts = append(hosts, h)
		}
	}
	stab := hom.StabSuperround(res.GST)

	// Ground truth: alpha counts the correct holders of an identifier
	// that broadcast a value (every superround), at most one without
	// Multiplicity; untrusted counts an identifier's corrupted and
	// faulted holders. A crashed holder did broadcast before its window,
	// so what it contributes is legitimate, not forged.
	type pair struct {
		id  hom.Identifier
		key string
	}
	type broadcast struct {
		pair
		v hom.Value
	}
	alpha := make(map[pair]int)
	var broadcasts []broadcast // first-sight order
	for _, s := range correct {
		pr := pair{res.Assignment[s], value{b.Tag, res.Inputs[s]}.Key()}
		if alpha[pr] == 0 {
			broadcasts = append(broadcasts, broadcast{pr, res.Inputs[s]})
		}
		if b.Multiplicity || alpha[pr] == 0 {
			alpha[pr]++
		}
	}
	untrusted := make(map[hom.Identifier]int)
	for _, s := range res.Corrupted {
		untrusted[res.Assignment[s]]++
	}
	for _, s := range res.Faulted {
		untrusted[res.Assignment[s]]++
	}

	// Correctness: every stabilised broadcast is accepted by every
	// correct process within its superround.
correctness:
	for sr := stab; sr <= res.Rounds/2; sr++ {
		for _, bc := range broadcasts {
			want := alpha[bc.pair]
			for i, h := range hosts {
				if h.accepted(bc.key, bc.id, sr, want, 2*sr) {
					continue
				}
				if b.Multiplicity {
					report(trace.BroadcastCorrectness, "slot %d did not accept (%q, identifier %d) with multiplicity >= %d in stabilised superround %d",
						slots[i], bc.key, bc.id, want, sr)
				} else {
					report(trace.BroadcastCorrectness, "slot %d did not accept (value %d, identifier %d) broadcast in stabilised superround %d",
						slots[i], bc.v, bc.id, sr)
				}
				break correctness
			}
		}
	}

	// Unforgeability: no accept's multiplicity exceeds α + f_i.
unforgeability:
	for i, h := range hosts {
		for _, a := range h.Log {
			key := a.Body.Key()
			bound := alpha[pair{a.ID, key}] + untrusted[a.ID]
			if a.Alpha <= bound {
				continue
			}
			if b.Multiplicity {
				report(trace.BroadcastUnforgeability, "slot %d accepted (%q, identifier %d) with multiplicity %d > alpha+f_i = %d",
					slots[i], key, a.ID, a.Alpha, bound)
			} else {
				report(trace.BroadcastUnforgeability, "slot %d accepted forged message %q under all-correct identifier %d (superround %d)",
					slots[i], key, a.ID, a.SR)
			}
			break unforgeability
		}
	}

	// Relay: an accept at one correct process reaches every correct
	// process, with at least its multiplicity, by the deadline.
relay:
	for i, h := range hosts {
		for _, a := range h.Log {
			r := hom.Superround(a.Round)
			deadline := b.deadline(r, stab)
			if 2*deadline > res.Rounds {
				continue // deadline beyond the budget: not checkable
			}
			key := a.Body.Key()
			for j, h2 := range hosts {
				if h2.accepted(key, a.ID, a.SR, a.Alpha, 2*deadline) {
					continue
				}
				if b.Multiplicity {
					report(trace.BroadcastRelay, "slot %d accepted (%q, identifier %d, alpha %d) in superround %d but slot %d had not by superround %d",
						slots[i], key, a.ID, a.Alpha, r, slots[j], deadline)
				} else {
					report(trace.BroadcastRelay, "slot %d accepted (%q, identifier %d) in superround %d but slot %d had not by superround %d",
						slots[i], key, a.ID, r, slots[j], deadline)
				}
				break relay
			}
		}
	}
	return verdict
}
