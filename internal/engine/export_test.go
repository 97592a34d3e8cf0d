package engine

import (
	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
)

// The row-routing execution, shared by the external
// TestRowRoutingMatchesPerPair (which holds its Results to the reference
// interpreter) and the internal TestRowRoutingKeepsRowsOpen (which pins
// how the router routes it): n=24, l=5 (groups of four and five), slots 3
// and 12 Byzantine, partially synchronous and numerate with GST 3,
// RowRounds rounds under RowTime.

// RowRounds is the row-routing execution's length.
const RowRounds = 8

// RowTime is the row-routing execution's time model.
var RowTime = EventuallySynchronous{Bound: 2}

// RowVariant is one set of faults the row-routing execution runs under.
type RowVariant struct {
	Name       string
	Sched      *inject.Schedule
	Visibility bool // restrict a seeded thirteenth of the links
	FirstRow   int  // the first round no hold, stall or replay window covers
	DrainRound int  // the round the held pairs surface in (0: none held)
}

// RowVariants covers everything that can make two members of a group
// differ or close the rows for a round. Each adds a duplication in round
// 6 to the pre-GST drops of RowAdversary.
func RowVariants() []RowVariant {
	dup := []inject.Duplicate{{FromSlot: 2, ToSlot: 9, Round: 6}}
	return []RowVariant{
		// Rounds 1-3 sit inside the hold window and route per pair; 4-6
		// are row rounds under the loss window (masked), 5 drains the
		// pairs held in round 3; 7-8 are clean.
		{Name: "timing", FirstRow: 4, DrainRound: 5, Sched: &inject.Schedule{
			Delays: []inject.Delay{{FromSlot: 0, ToSlot: 7, From: 3, Until: 3, By: 2}}, Duplicates: dup}},
		// Round 1 is captured from, round 2 replayed into: both per pair.
		{Name: "replay", FirstRow: 3, Sched: &inject.Schedule{
			Replays: []inject.Replay{{FromSlot: 6, SourceRound: 1, ToSlot: 10, Round: 2}}, Duplicates: dup}},
		// No window to wait out: every round is a row round, the first
		// two under the pre-GST drop mask.
		{Name: "drops", FirstRow: 1, Sched: &inject.Schedule{Duplicates: dup}},
		{Name: "visibility", FirstRow: 1, Sched: &inject.Schedule{Duplicates: dup}, Visibility: true},
	}
}

// RowConfig is the row-routing execution under v, less its process
// factory.
func RowConfig(v RowVariant) Config {
	const n, l = 24, 5
	cfg := Config{
		Params:     hom.Params{N: n, L: l, T: 2, Synchrony: hom.PartiallySynchronous, Numerate: true},
		Assignment: hom.RoundRobinAssignment(n, l),
		Inputs:     make([]hom.Value, n),
		Adversary:  RowAdversary{},
		GST:        3,
		MaxRounds:  RowRounds,
		Faults:     v.Sched,
		TimeModel:  RowTime,
	}
	if v.Visibility {
		cfg.Visibility = func(from, to int) bool { return !(SeededMask{Seed: 11, Modulus: 13}).Hit(0, from, to) }
	}
	return cfg
}

// RowTraffic is what correct slot s sends in a round of the row-routing
// execution: a broadcast every round, one identifier group addressed in
// a third of its rounds, and — at slots 5 and 6 — identifiers nobody
// holds (l+2 and 0), which must reach no one.
func RowTraffic(round, s, l int) []msg.Send {
	tag := itoaTest(s) + "|" + itoaTest(round)
	sends := []msg.Send{msg.Broadcast(msg.Raw("b|" + tag))}
	if (s+round)%3 == 0 {
		sends = append(sends, msg.SendTo(hom.Identifier((s+round)%l+1), msg.Raw("i|"+tag)))
	}
	switch s {
	case 5:
		sends = append(sends, msg.SendTo(hom.Identifier(l+2), msg.Raw("nobody|"+tag)))
	case 6:
		sends = append(sends, msg.SendTo(0, msg.Raw("zero|"+tag)))
	}
	return sends
}

// RowAdversary corrupts slots 3 and 12. Before the last round, slot 3
// hands every slot one of two variants (equal keys within a group
// re-unify its members) and slot 12 singles out three slots with bodies
// of their own; before GST a seeded sixth of the links drop. Sends reads
// nothing of its View.
type RowAdversary struct{}

func (RowAdversary) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int { return []int{3, 12} }

func (RowAdversary) Sends(round, slot int, v *View) []msg.TargetedSend {
	const n, l = 24, 5
	var out []msg.TargetedSend
	for to := 0; round < RowRounds && to < n; to++ {
		if slot == 3 {
			out = append(out, msg.TargetedSend{ToSlot: to, Body: msg.Raw("v|" + itoaTest((to/l+round)%2))})
		} else if to == 1 || to == 6 || to == 16 {
			out = append(out, msg.TargetedSend{ToSlot: to, Body: msg.Raw("solo|" + itoaTest(to))})
		}
	}
	return out
}

func (RowAdversary) Drop(round, from, to int) bool {
	return SeededMask{Seed: 7, Modulus: 6}.Hit(round, from, to)
}

// ArenaProbe is Counting() keeping, for every round, how many entries
// the round's arena held and how many classes were left once the round
// was delivered (after its merges).
type ArenaProbe struct {
	countingRep
	Arena, Classes []int
}

func (p *ArenaProbe) DeliverRound(round int) {
	p.countingRep.DeliverRound(round)
	p.Arena = append(p.Arena, p.e.router.arena.Len())
	p.Classes = append(p.Classes, p.ClassCount())
}

// InternProbe wraps a state representation and keeps the execution's
// key intern table as Stop found it: Keys is its KeyID assignment order
// (msg.Interner.Snapshot).
type InternProbe struct {
	StateRep
	e    *Engine
	Keys []string
}

func (p *InternProbe) Start(e *Engine) error {
	p.e = e
	return p.StateRep.Start(e)
}

func (p *InternProbe) Stop() {
	if p.e != nil {
		p.Keys = p.e.intern.Snapshot()
	}
	p.StateRep.Stop()
}

// SeededMask is a drop policy and a visibility restriction drawn from
// one pure hash of (round, from, to), hitting about one link in Modulus,
// so every router and the reference interpreter see the same masks.
type SeededMask struct{ Seed, Modulus uint64 }

func (m SeededMask) Hit(round, from, to int) bool {
	x := m.Seed ^ uint64(round)<<40 ^ uint64(from)<<20 ^ uint64(to)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x%m.Modulus == 0
}

func (m SeededMask) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int { return nil }
func (m SeededMask) Sends(int, int, *View) []msg.TargetedSend              { return nil }
func (m SeededMask) Drop(round, from, to int) bool                         { return m.Hit(round, from, to) }

// SpareProbe is Counting() keeping, for every round, how many correct
// sends the representation registered and how many of them the router
// spared (accounted without stamping).
type SpareProbe struct {
	countingRep
	Sent, Spared []int
}

func (p *SpareProbe) DeliverRound(round int) {
	sent := 0
	for _, o := range p.e.outgoing {
		sent += len(o.sends)
	}
	p.Sent = append(p.Sent, sent)
	p.Spared = append(p.Spared, p.e.router.spared.Len())
	p.countingRep.DeliverRound(round)
}
