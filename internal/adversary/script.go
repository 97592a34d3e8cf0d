package adversary

import (
	"fmt"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// Scripted pieces: a Behavior and a DropPolicy that replay an explicit,
// serializable list of per-round choices. They are the exhaustive
// explorer's counterexample format — a violating execution found by
// package explore exports its adversary as a script, which the fuzzer's
// Scenario JSON carries (behavior/drop kind "script") and the seed
// corpus replays byte-for-byte. Both pieces are stateless and pure in
// their inputs, so they compose with shrinking and with the batched
// delivery path exactly like the hand-written policies above.

// ScriptSend is one scripted Byzantine action of slot Slot in round
// Round. The default action forges the protocol's payloads for Value
// (via the ScriptBehavior's Make hook, so a script stays
// protocol-shaped without serializing message bodies); with Copy set it
// instead replays the current-round broadcasts of the correct slot Src
// under the Byzantine slot's own identifier — the equivocation shape
// the paper's covering arguments use; with Mimic set it runs a shadow
// correct process (the ScriptBehavior's Factory) started with input
// Value and forwards its sends — the mirror-twin shape of Lemma 17,
// where a Byzantine process is indistinguishable from a correct one
// that proposed differently. Feed restricts which correct slots'
// broadcasts the shadow hears (nil = all; the shadow always
// self-delivers), so a split pair of mimic steps can impersonate the
// two sides of a partitioned system. To lists the recipient slots
// (nil = every slot).
type ScriptSend struct {
	Round int   `json:"round"`
	Slot  int   `json:"slot"`
	Value int   `json:"value,omitempty"`
	Copy  bool  `json:"copy,omitempty"`
	Src   int   `json:"src,omitempty"`
	Mimic bool  `json:"mimic,omitempty"`
	Feed  []int `json:"feed,omitempty"`
	To    []int `json:"to,omitempty"`
}

// ScriptBehavior replays ScriptSend steps. Rounds with no matching step
// are silent for that slot.
//
// With Repeat set, rounds past the scripted window replay the window's
// last round — the stationary-suffix shape non-termination
// counterexamples need (the adversary keeps interfering forever, but
// the script stays finite). The window is Span rounds long when Span >
// 0, else it ends at the last round with a step; Span exists so a
// window whose final rounds are deliberately silent (no steps) repeats
// that silence rather than the last noisy round.
//
// Make builds forged payloads for a value (the fuzzer wires the
// protocol's registry Forge); a nil Make disables forge steps but not
// Copy steps. Factory builds shadow correct processes for Mimic steps
// (the fuzzer wires the protocol's New); a nil Factory disables them.
//
// Mimic steps make the behavior stateful (shadow processes advance one
// round at a time), so ScriptBehavior implements Behavior with pointer
// receivers and must be used per execution — the fuzzer composes a
// fresh one for every Scenario.Config call.
type ScriptBehavior struct {
	Steps   []ScriptSend
	Repeat  bool
	Span    int
	Make    func(round int, v hom.Value) []msg.Payload
	Factory func(slot int) engine.Process

	shadows map[string]*mimicShadow
}

// mimicShadow is one live shadow process: a correct-protocol instance
// the Byzantine slot impersonates. pending is the inbox assembled from
// the current round's omniscient view, delivered just before the next
// round's Prepare. attacks.Mirror's Lemma-17 twin is one of these.
type mimicShadow struct {
	proc      engine.Process
	lastRound int
	pending   []msg.Message
}

// window returns the scripted window's last round (0 when empty).
func (sb *ScriptBehavior) window() int {
	if sb.Span > 0 {
		return sb.Span
	}
	last := 0
	for _, st := range sb.Steps {
		if st.Round > last {
			last = st.Round
		}
	}
	return last
}

// Sends implements Behavior. Forged payloads are built with the
// execution's real round (not the scripted one a Repeat maps back to),
// so repeated actions stay well-formed for protocols whose messages are
// round-tagged; Copy steps likewise copy the real round's broadcasts.
func (sb *ScriptBehavior) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	if len(sb.Steps) == 0 {
		return nil
	}
	eff := round
	if sb.Repeat {
		if w := sb.window(); w > 0 && round > w {
			eff = w
		}
	}
	var out []msg.TargetedSend
	for _, st := range sb.Steps {
		if st.Round != eff || st.Slot != slot {
			continue
		}
		if st.Mimic {
			out = append(out, sb.mimic(st, round, slot, view)...)
			continue
		}
		// The step's sends, ToSlot left for emit to fill in.
		var step []msg.TargetedSend
		if st.Copy {
			ss := view.SendsOf(st.Src)
			for j := range ss {
				if ss[j].Kind == msg.ToAll && ss[j].Body != nil {
					step = append(step, msg.TargetedSend{Body: ss[j].Body, Forwards: &ss[j]})
				}
			}
		} else if sb.Make != nil {
			for _, pl := range sb.Make(round, hom.Value(st.Value)) {
				if pl != nil {
					step = append(step, msg.TargetedSend{Body: pl})
				}
			}
		}
		emit := func(to int) {
			for _, ts := range step {
				ts.ToSlot = to
				out = append(out, ts)
			}
		}
		if st.To == nil {
			for to := 0; to < view.Params.N; to++ {
				emit(to)
			}
			continue
		}
		for _, to := range st.To {
			if to >= 0 && to < view.Params.N {
				emit(to)
			}
		}
	}
	return out
}

// mimic executes one Mimic step: it advances the step's shadow process
// by one round (delivering the inbox assembled from the previous
// round's view first) and forwards the shadow's sends to the step's
// recipients under the Byzantine slot's identifier. Shadows are keyed
// by (slot, input, feed), so a split pair of mimic steps drives two
// independent twins; the shadow always hears its own broadcasts
// (self-delivery) plus the Feed slots' ones, uncensored by the drop
// policy — Byzantine coordination is free. The step's real round is
// used throughout (under Repeat the shadow keeps advancing).
func (sb *ScriptBehavior) mimic(st ScriptSend, round, slot int, view *engine.View) []msg.TargetedSend {
	if sb.Factory == nil {
		return nil
	}
	myID := view.Assignment[slot]
	key := fmt.Sprintf("%d|%d|%v", st.Slot, st.Value, st.Feed)
	sh := sb.shadows[key]
	if sh == nil {
		proc := sb.Factory(slot)
		proc.Init(engine.Context{ID: myID, Input: hom.Value(st.Value), Params: view.Params})
		sh = &mimicShadow{proc: proc}
		if sb.shadows == nil {
			sb.shadows = make(map[string]*mimicShadow)
		}
		sb.shadows[key] = sh
	}
	if sh.lastRound >= round {
		return nil // duplicate step for the same shadow this round
	}
	if round > 1 && sh.lastRound == round-1 {
		sh.proc.Receive(round-1, msg.NewInbox(view.Params.Numerate, sh.pending))
	}
	sh.lastRound = round

	sends := sh.proc.Prepare(round)
	var out []msg.TargetedSend
	emit := func(to int) {
		for j, snd := range sends {
			if snd.Kind == msg.ToIdentifier && view.Assignment[to] != snd.To {
				continue
			}
			out = append(out, msg.TargetedSend{ToSlot: to, Body: snd.Body, Forwards: &sends[j]})
		}
	}
	if st.To == nil {
		for to := 0; to < view.Params.N; to++ {
			emit(to)
		}
	} else {
		for _, to := range st.To {
			if to >= 0 && to < view.Params.N {
				emit(to)
			}
		}
	}

	// Assemble the inbox the shadow will consume before the next round.
	sh.pending = sh.pending[:0]
	hear := func(from int) {
		for _, snd := range view.SendsOf(from) {
			if snd.Kind == msg.ToIdentifier && snd.To != myID {
				continue
			}
			sh.pending = append(sh.pending, msg.Message{ID: view.Assignment[from], Body: snd.Body})
		}
	}
	if st.Feed == nil {
		for _, from := range view.Senders() {
			hear(int(from))
		}
	} else {
		for _, from := range st.Feed {
			if from >= 0 && from < view.Params.N {
				hear(from)
			}
		}
	}
	for _, snd := range sends {
		if snd.Kind == msg.ToIdentifier && snd.To != myID {
			continue
		}
		sh.pending = append(sh.pending, msg.Message{ID: myID, Body: snd.Body})
	}
	return out
}

// DropEdge is one scripted suppression: the message from From to To in
// round Round is dropped. Round 0 is a wildcard matching every round
// (the engine only consults drops before GST regardless).
type DropEdge struct {
	Round int `json:"round"`
	From  int `json:"from"`
	To    int `json:"to"`
}

// ScriptDrops suppresses exactly the listed edges. Repeat and Span
// mirror ScriptBehavior: rounds past the scripted window reuse the
// window's last round's edges, so a partition chosen once persists to
// GST without the script growing with the round budget. Decisions are
// pure functions of (round, from, to), as the DropPolicy contract
// requires.
type ScriptDrops struct {
	Edges  []DropEdge
	Repeat bool
	Span   int
}

// window returns the scripted window's last round (0 when there are no
// explicitly-rounded edges and no Span).
func (sd ScriptDrops) window() int {
	if sd.Span > 0 {
		return sd.Span
	}
	last := 0
	for _, e := range sd.Edges {
		if e.Round > last {
			last = e.Round
		}
	}
	return last
}

// effective maps a round into the scripted window under Repeat.
func (sd ScriptDrops) effective(round int) int {
	if sd.Repeat {
		if w := sd.window(); w > 0 && round > w {
			return w
		}
	}
	return round
}

// Drop implements DropPolicy.
func (sd ScriptDrops) Drop(round, from, to int) bool {
	eff := sd.effective(round)
	for _, e := range sd.Edges {
		if e.From == from && e.To == to && (e.Round == 0 || e.Round == eff) {
			return true
		}
	}
	return false
}

// DropBatch implements BatchDropPolicy: the effective round and the
// recipient-side filter are resolved once per batch.
func (sd ScriptDrops) DropBatch(round, toSlot int, fromSlots []int32, drop []bool) {
	eff := sd.effective(round)
	for _, e := range sd.Edges {
		if e.To != toSlot || (e.Round != 0 && e.Round != eff) {
			continue
		}
		for i, from := range fromSlots {
			if int(from) == e.From {
				drop[i] = true
			}
		}
	}
}
