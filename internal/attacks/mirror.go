package attacks

import (
	"errors"
	"fmt"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
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
// and vice versa in the run from C′: it is a Mimic step of an
// adversary.ScriptBehavior, whose shadow process hears every correct
// broadcast. All other Byzantine processes stay silent. Each twin sends
// exactly one message per recipient per round, so the adversary is
// restricted.
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
	var twins []int
	twin := -1
	seen := make(map[hom.Identifier]bool, p.L)
	for s, id := range assignment {
		if s == flippedSlot || seen[id] {
			continue
		}
		seen[id] = true
		twins = append(twins, s)
		if id == assignment[flippedSlot] {
			twin = s
		}
	}
	if len(twins) != p.L {
		return nil, fmt.Errorf("%w (need a Byzantine candidate for every identifier)", ErrMirrorRegion)
	}
	if twin < 0 {
		return nil, fmt.Errorf("%w (no twin shares the flipped slot's identifier)", ErrMirrorRegion)
	}

	runOnce := func(flippedInput, twinInput hom.Value) (*engine.Result, error) {
		inputs := append([]hom.Value(nil), baseInputs...)
		inputs[flippedSlot] = flippedInput
		// Every round replays round 1's Mimic step, so one shadow process
		// started on twinInput advances beside the system.
		adv := &adversary.Composite{
			Selector: adversary.Slots(twins),
			Behavior: &adversary.ScriptBehavior{
				Steps:   []adversary.ScriptSend{{Round: 1, Slot: twin, Mimic: true, Value: twinInput}},
				Repeat:  true,
				Span:    1,
				Factory: factory,
			},
		}
		return engine.Run(engine.Config{
			Params:     p,
			Assignment: assignment,
			Inputs:     inputs,
			NewProcess: factory,
			Adversary:  adv,
			GST:        1, // fully synchronous delivery: the lemma needs no drops
			MaxRounds:  maxRounds,
		})
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
