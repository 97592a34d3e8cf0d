// Package attacks implements the paper's lower-bound constructions as
// executable experiments. Each attack takes a concrete algorithm
// (instantiated, when necessary, outside its guaranteed parameter region
// via the algorithm packages' *Unchecked constructors) and produces the
// exact execution from the corresponding proof, then reports the observed
// violation of validity, agreement or termination:
//
//   - Covering (Figure 1 / Proposition 1): a 2n-process synchronous
//     covering system for ℓ = 3t whose three overlapping views cannot all
//     satisfy the specification.
//   - Partition (Figure 4 / Proposition 4): the partially synchronous
//     partition execution γ for 3t < ℓ ≤ (n+3t)/2, with the Byzantine
//     processes replaying two internal executions α and β.
//   - CloneCollapse (Theorem 19): with restricted Byzantine processes and
//     innumerate receivers, a homonym group with equal inputs behaves as
//     one process, reducing ℓ ≤ 3t homonym systems to n = ℓ ≤ 3t classical
//     systems.
//   - Mirror (Proposition 16 / Lemma 17): with ℓ ≤ t, a Byzantine twin
//     makes input-adjacent configurations indistinguishable to everyone
//     else.
//   - StarveLeader / LockSplit: the ablation adversaries showing why the
//     Figure-5 algorithm needs its decide relay and its vote superround.
package attacks

import (
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// World is a manually-driven lockstep system used to build covering
// systems and the internal replay executions of the partition attack. It
// differs from the engine in two ways: the routing of messages is an
// arbitrary slot-level function (covering systems are not complete
// graphs), and the model parameters handed to processes are chosen by the
// attack, independent of the world's actual size (a covering system of 2n
// processes runs processes that believe they live in an n-process system).
type World struct {
	// Procs holds one process per slot; nil entries are silent (used for
	// the silent Byzantine processes of the α and β executions).
	Procs []engine.Process
	// IDs holds each slot's identifier.
	IDs []hom.Identifier
	// Numerate selects reception semantics.
	Numerate bool
	// Route reports whether a message from slot `from` reaches slot `to`;
	// nil means complete connectivity (including self-delivery).
	Route func(from, to int) bool

	round     int
	lastSends [][]msg.Send
	// keys interns every message the world delivers. A world's processes
	// never receive from anywhere else, so their inboxes carry KeyIDs of
	// one interner for life (the contract msg.Inbox.KeyIDAt states) and
	// run on the same string-free reception paths as under the engine.
	keys *msg.Interner
	// raw is step's per-recipient delivery scratch, reused every round
	// (inboxes copy what they keep).
	raw [][]msg.Message
}

// NewWorld initialises the processes with their identifiers, inputs and
// the (algorithm-view) parameters, and returns the assembled world.
// procs[i] == nil marks slot i as silent.
func NewWorld(procs []engine.Process, ids []hom.Identifier, inputs []hom.Value,
	algParams hom.Params, numerate bool, route func(from, to int) bool) *World {
	for i, p := range procs {
		if p == nil {
			continue
		}
		p.Init(engine.Context{ID: ids[i], Input: inputs[i], Params: algParams})
	}
	return &World{Procs: procs, IDs: ids, Numerate: numerate, Route: route}
}

// Round returns the number of completed rounds.
func (w *World) Round() int { return w.round }

// Step executes one round and records each slot's sends (retrievable via
// SendsOf for replay attacks).
func (w *World) Step() { w.step(-1, nil) }

// step is one round; when inject is non-nil the (nil-process) slot
// byzSlot additionally broadcasts it. Each send is stamped once and the
// stamped message fanned out to its recipients; the fan-out lists and the
// inbox shells are reused from round to round, as under the engine, so a
// process must not keep its inbox past Receive.
func (w *World) step(byzSlot int, inject msg.Payload) {
	w.round++
	n := len(w.Procs)
	sends := make([][]msg.Send, n)
	for s, p := range w.Procs {
		if p != nil {
			sends[s] = p.Prepare(w.round)
		}
	}
	if inject != nil {
		sends[byzSlot] = []msg.Send{msg.Broadcast(inject)}
	}
	w.lastSends = sends
	if w.keys == nil {
		w.keys = msg.NewInterner()
	}
	if w.raw == nil {
		w.raw = make([][]msg.Message, n)
	}
	for to := range w.raw {
		w.raw[to] = w.raw[to][:0]
	}
	for from := 0; from < n; from++ {
		for _, snd := range sends[from] {
			m := msg.NewMessageInterned(w.keys, w.IDs[from], snd.Body)
			for to := 0; to < n; to++ {
				if w.Procs[to] == nil {
					continue // silent slots receive nothing
				}
				if w.Route != nil && !w.Route(from, to) {
					continue
				}
				if snd.Kind == msg.ToIdentifier && w.IDs[to] != snd.To {
					continue
				}
				w.raw[to] = append(w.raw[to], m)
			}
		}
	}
	for to, p := range w.Procs {
		if p != nil {
			in := msg.NewPooledInbox(w.Numerate, w.raw[to])
			p.Receive(w.round, in)
			in.Recycle()
		}
	}
}

// SendsOf returns the sends slot s produced in the last executed round.
func (w *World) SendsOf(s int) []msg.Send { return w.lastSends[s] }

// Decisions returns the current decision of every slot (hom.NoValue for
// undecided or silent slots).
func (w *World) Decisions() []hom.Value {
	out := make([]hom.Value, len(w.Procs))
	for i, p := range w.Procs {
		out[i] = hom.NoValue
		if p != nil {
			if v, ok := p.Decision(); ok {
				out[i] = v
			}
		}
	}
	return out
}

// AllDecided reports whether every non-silent slot in the given set has
// decided.
func (w *World) AllDecided(slots []int) bool {
	for _, s := range slots {
		p := w.Procs[s]
		if p == nil {
			continue
		}
		if _, ok := p.Decision(); !ok {
			return false
		}
	}
	return true
}
