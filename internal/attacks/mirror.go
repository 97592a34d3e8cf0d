package attacks

import (
	"errors"
	"fmt"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// Mirror-attack errors.
var (
	ErrMirrorRegion = errors.New("attacks: mirror experiment requires l <= t (every identifier coverable by a Byzantine twin)")
)

// MirrorReport summarises one Lemma-17 indistinguishability experiment.
type MirrorReport struct {
	// FlippedSlot is the correct process whose input differs between the
	// two configurations.
	FlippedSlot int
	// TwinSlot is the Byzantine process holding the same identifier that
	// mirrors the flipped process's alternative behaviour.
	TwinSlot int
	// DecisionsC and DecisionsCPrime are the decisions of the correct
	// processes other than FlippedSlot in the two runs (hom.NoValue for
	// undecided).
	DecisionsC, DecisionsCPrime map[int]hom.Value
	// Indistinguishable reports whether all those processes behaved
	// identically across the two runs — Lemma 17's claim.
	Indistinguishable bool
	// Detail describes the first difference when Indistinguishable is
	// false.
	Detail string
}

// Mirror runs the Lemma-17 experiment behind Proposition 16 (ℓ ≤ t makes
// agreement impossible even for numerate processes against restricted
// Byzantine processes).
//
// Two executions are run. In both, every identifier 1..ℓ has one Byzantine
// process; the remaining slots are correct. Configuration C gives
// flippedSlot the input inputC; configuration C′ gives it inputCPrime. In
// the run from C, the Byzantine twin (same identifier as flippedSlot)
// executes the correct algorithm as if it had started with inputCPrime —
// and vice versa in the run from C′. All other Byzantine processes stay
// silent. Each twin sends exactly one message per recipient per round, so
// the adversary is restricted.
//
// To every correct process other than flippedSlot, the multiset
// {flipped process, twin} sends the same messages in both runs, so the
// two runs are indistinguishable and those processes decide identically —
// which is the exchange step that the valency argument of Proposition 16
// iterates to contradict validity.
func Mirror(p hom.Params, factory func(slot int) engine.Process, assignment hom.Assignment,
	baseInputs []hom.Value, flippedSlot int, inputC, inputCPrime hom.Value,
	maxRounds int) (*MirrorReport, error) {
	if p.L > p.T {
		return nil, fmt.Errorf("%w (l=%d, t=%d)", ErrMirrorRegion, p.L, p.T)
	}
	if !p.RestrictedByzantine || !p.Numerate {
		return nil, fmt.Errorf("%w (the proposition targets the numerate restricted model)", ErrMirrorRegion)
	}

	// One Byzantine process per identifier: the first slot holding each
	// identifier that is not the flipped slot.
	twinByID := make(map[hom.Identifier]int, p.L)
	for s, id := range assignment {
		if s == flippedSlot {
			continue
		}
		if _, ok := twinByID[id]; !ok {
			twinByID[id] = s
		}
	}
	if len(twinByID) != p.L {
		return nil, fmt.Errorf("%w (need a Byzantine candidate for every identifier)", ErrMirrorRegion)
	}
	twin, ok := twinByID[assignment[flippedSlot]]
	if !ok {
		return nil, fmt.Errorf("%w (no twin shares the flipped slot's identifier)", ErrMirrorRegion)
	}

	runOnce := func(flippedInput, twinInput hom.Value) (*engine.Result, error) {
		inputs := append([]hom.Value(nil), baseInputs...)
		inputs[flippedSlot] = flippedInput
		adv := &mirrorAdversary{
			factory:   factory,
			twinSlot:  twin,
			twinInput: twinInput,
			twinID:    assignment[flippedSlot],
			byID:      twinByID,
		}
		return engine.Run(
			engine.WithParams(p),
			engine.WithAssignment(assignment),
			engine.WithInputs(inputs...),
			engine.WithProcess(factory),
			engine.WithAdversary(adv),
			engine.WithGST(1), // fully synchronous delivery: the lemma needs no drops
			engine.WithRounds(maxRounds),
		)
	}

	resC, err := runOnce(inputC, inputCPrime)
	if err != nil {
		return nil, err
	}
	resCPrime, err := runOnce(inputCPrime, inputC)
	if err != nil {
		return nil, err
	}

	report := &MirrorReport{
		FlippedSlot:       flippedSlot,
		TwinSlot:          twin,
		DecisionsC:        map[int]hom.Value{},
		DecisionsCPrime:   map[int]hom.Value{},
		Indistinguishable: true,
	}
	for _, s := range resC.CorrectSlots() {
		if s == flippedSlot {
			continue
		}
		report.DecisionsC[s] = resC.Decisions[s]
		report.DecisionsCPrime[s] = resCPrime.Decisions[s]
		if resC.Decisions[s] != resCPrime.Decisions[s] {
			report.Indistinguishable = false
			if report.Detail == "" {
				report.Detail = fmt.Sprintf("slot %d decided %d from C but %d from C'",
					s, resC.Decisions[s], resCPrime.Decisions[s])
			}
		}
	}
	return report, nil
}

// mirrorAdversary corrupts one slot per identifier; the twin slot runs the
// correct algorithm on the mirrored input (reconstructing its inbox from
// the omniscient view), all other corrupted slots stay silent.
type mirrorAdversary struct {
	factory   func(slot int) engine.Process
	twinSlot  int
	twinInput hom.Value
	twinID    hom.Identifier
	byID      map[hom.Identifier]int

	params     hom.Params
	assignment hom.Assignment
	inner      engine.Process
	lastRound  int
	pendingIn  []msg.Message // inbox being assembled for the current round
	lastSends  []msg.TargetedSend
}

var _ engine.Adversary = (*mirrorAdversary)(nil)

// Corrupt implements engine.Adversary.
func (a *mirrorAdversary) Corrupt(p hom.Params, assignment hom.Assignment, _ []hom.Value) []int {
	a.params = p
	a.assignment = assignment
	a.inner = a.factory(a.twinSlot)
	a.inner.Init(engine.Context{ID: a.twinID, Input: a.twinInput, Params: p})
	var out []int
	for _, s := range a.byID {
		out = append(out, s)
	}
	return out
}

// Sends implements engine.Adversary. Only the twin slot speaks; it forwards
// what the mirrored correct process would send this round. Before
// preparing round r it replays the round r−1 reception (all traffic is
// synchronous and loss-free, so the inbox is fully reconstructable from
// the view).
func (a *mirrorAdversary) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	if slot != a.twinSlot {
		return nil
	}
	if round > 1 && a.lastRound == round-1 {
		a.inner.Receive(round-1, msg.NewInbox(a.params.Numerate, a.pendingIn))
	}
	a.lastRound = round

	// Prepare this round's sends from the inner process.
	sends := a.inner.Prepare(round)
	var out []msg.TargetedSend
	for _, snd := range sends {
		for to := 0; to < a.params.N; to++ {
			if snd.Kind == msg.ToIdentifier && a.assignment[to] != snd.To {
				continue
			}
			out = append(out, msg.TargetedSend{ToSlot: to, Body: snd.Body})
		}
	}

	// Assemble the inbox the inner process will consume before the next
	// round: every correct broadcast that reaches the twin, plus its own
	// sends (self-delivery).
	a.pendingIn = a.pendingIn[:0]
	for _, from := range view.Senders() {
		for _, snd := range view.SendsOf(int(from)) {
			if snd.Kind == msg.ToIdentifier && snd.To != a.twinID {
				continue
			}
			a.pendingIn = append(a.pendingIn, msg.Message{ID: a.assignment[from], Body: snd.Body})
		}
	}
	for _, ts := range out {
		if ts.ToSlot == a.twinSlot {
			a.pendingIn = append(a.pendingIn, msg.Message{ID: a.twinID, Body: ts.Body})
		}
	}
	return out
}

// Drop implements engine.Adversary: the lemma's executions are loss-free.
func (a *mirrorAdversary) Drop(int, int, int) bool { return false }
