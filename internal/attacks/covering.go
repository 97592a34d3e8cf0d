package attacks

import (
	"errors"
	"fmt"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/trace"
)

// Covering-attack errors.
var (
	ErrCoveringRegion = errors.New("attacks: covering scenario requires l = 3t, t >= 1 and n > 3t")
)

// CoveringReport summarises one run of the Figure-1 scenario.
type CoveringReport struct {
	// Rounds executed.
	Rounds int
	// Arc0, Arc1, ArcMix list the covering-system slots of the three
	// overlapping views.
	Arc0, Arc1, ArcMix []int
	// Decisions holds every covering-system slot's decision.
	Decisions []hom.Value
	// Violations lists the view obligations that failed. A correct
	// algorithm for l = 3t would have to satisfy all of them, which is
	// impossible — so at least one entry is always present for any
	// terminating algorithm.
	Violations []trace.Violation
}

// Succeeded reports whether the scenario exhibited at least one
// obligation failure.
func (r *CoveringReport) Succeeded() bool { return len(r.Violations) > 0 }

// Covering runs the Proposition-1 scenario against a synchronous homonym
// algorithm given by factory, built for parameters p with ℓ = 3t (the
// boundary the paper proves unsolvable; classical.NewEIGUnchecked builds
// the EIG to transform there).
//
// The covering system (paper Figure 1) has 2n processes: a 0-input half
// and a 1-input half, each holding all 3t identifiers, with two stacks of
// n−3t+1 processes (identifier 1 in the 0-half, identifier t+1 in the
// 1-half). Every process runs the algorithm correctly; there is no
// Byzantine process at all. Message routing is arranged so that each of
// three overlapping sets of n−t processes observes a perfectly legal
// n-process execution:
//
//   - arc0 = 0-half identifiers 1..2t: a run where identifiers 2t+1..3t
//     are Byzantine and all correct inputs are 0 ⇒ must decide 0.
//   - arc1 = 1-half identifiers t+1..3t: a run where identifiers 1..t are
//     Byzantine and all correct inputs are 1 ⇒ must decide 1.
//   - arcMix = 1-half identifiers 2t+1..3t plus 0-half identifiers 1..t:
//     a run where identifiers t+1..2t are Byzantine ⇒ must agree. Here a
//     single Byzantine process with identifier t+1 impersonates the
//     1-half stack, which requires sending multiple messages per
//     recipient per round — the unrestricted-Byzantine power the proof
//     (and this routing) depends on.
//
// arc0 ∩ arcMix must decide 0 while arc1 ∩ arcMix must decide 1, so the
// three obligations are contradictory; the report records which ones the
// algorithm actually violates.
func Covering(p hom.Params, factory func(slot int) engine.Process, maxRounds int) (*CoveringReport, error) {
	n, l, t := p.N, p.L, p.T
	if t < 1 || l != 3*t || n <= 3*t {
		return nil, fmt.Errorf("%w (n=%d l=%d t=%d)", ErrCoveringRegion, n, l, t)
	}
	stack := n - 3*t + 1

	// Build the 2n slots: the 0-half then the 1-half.
	var ids hom.Assignment
	var inputs []hom.Value
	var half []int // 0 or 1
	addSlots := func(h int, id hom.Identifier, count int, input hom.Value) []int {
		var slots []int
		for i := 0; i < count; i++ {
			slots = append(slots, len(ids))
			ids = append(ids, id)
			inputs = append(inputs, input)
			half = append(half, h)
		}
		return slots
	}
	slotSets := make(map[string][]int)
	for id := 1; id <= 3*t; id++ {
		count := 1
		if id == 1 {
			count = stack
		}
		key := fmt.Sprintf("c0/%d", id)
		slotSets[key] = addSlots(0, hom.Identifier(id), count, 0)
	}
	for id := 1; id <= 3*t; id++ {
		count := 1
		if id == t+1 {
			count = stack
		}
		key := fmt.Sprintf("c1/%d", id)
		slotSets[key] = addSlots(1, hom.Identifier(id), count, 1)
	}

	// Receive-set table. For each receiver class, the set of sender
	// classes it hears from (derived in DESIGN.md §3/E2 so that each arc
	// member's view is a legal n-process execution):
	//
	//	C0(1..t):    C0(1..2t) ∪ C1(2t+1..3t)
	//	C0(t+1..2t): C0(1..3t)
	//	C0(2t+1..3t) (filler): C0(1..3t)
	//	C1(t+1..2t): C1(1..3t)
	//	C1(2t+1..3t): C1(t+1..3t) ∪ C0(1..t)
	//	C1(1..t) (filler): C1(1..3t)
	hears := func(toHalf int, toID, fromHalf int, fromID int) bool {
		switch {
		case toHalf == 0 && toID <= t:
			return (fromHalf == 0 && fromID <= 2*t) || (fromHalf == 1 && fromID > 2*t)
		case toHalf == 0:
			return fromHalf == 0
		case toHalf == 1 && toID > 2*t:
			return (fromHalf == 1 && fromID > t) || (fromHalf == 0 && fromID <= t)
		default: // 1-half, ids 1..2t (filler 1..t and arc1-only t+1..2t)
			return fromHalf == 1
		}
	}
	route := func(from, to int) bool {
		return hears(half[to], int(ids[to]), half[from], int(ids[from]))
	}

	res, err := construct(p, ids, inputs, factory, engine.WithVisibility(route), engine.WithRounds(maxRounds))
	if err != nil {
		return nil, err
	}

	arc0 := collect(slotSets, "c0", 1, 2*t)
	arc1 := collect(slotSets, "c1", t+1, 3*t)
	arcMix := append(append([]int(nil), collect(slotSets, "c1", 2*t+1, 3*t)...),
		collect(slotSets, "c0", 1, t)...)

	report := &CoveringReport{
		Rounds:    res.Rounds,
		Arc0:      arc0,
		Arc1:      arc1,
		ArcMix:    arcMix,
		Decisions: res.Decisions,
	}
	report.Violations = append(report.Violations,
		checkArcObligation(res, arc0, 0, "arc0 (all inputs 0)")...)
	report.Violations = append(report.Violations,
		checkArcObligation(res, arc1, 1, "arc1 (all inputs 1)")...)
	report.Violations = append(report.Violations,
		checkArcAgreement(res, arcMix, "arcMix")...)
	return report, nil
}

func collect(sets map[string][]int, half string, lo, hi int) []int {
	var out []int
	for id := lo; id <= hi; id++ {
		out = append(out, sets[fmt.Sprintf("%s/%d", half, id)]...)
	}
	return out
}

// checkArcObligation verifies termination and validity (decide `want`)
// for the processes of one arc.
func checkArcObligation(res *engine.Result, arc []int, want hom.Value, label string) []trace.Violation {
	var out []trace.Violation
	dec := res.Decisions
	for _, s := range arc {
		switch {
		case dec[s] == hom.NoValue:
			out = append(out, trace.Violation{
				Property: trace.Termination,
				Detail:   fmt.Sprintf("%s: slot %d undecided after %d rounds", label, s, res.Rounds),
			})
			return out
		case dec[s] != want:
			out = append(out, trace.Violation{
				Property: trace.Validity,
				Detail:   fmt.Sprintf("%s: slot %d decided %d, validity demands %d", label, s, dec[s], want),
			})
			return out
		}
	}
	return nil
}

// checkArcAgreement verifies termination and mutual agreement for the
// processes of one arc.
func checkArcAgreement(res *engine.Result, arc []int, label string) []trace.Violation {
	dec := res.Decisions
	first := hom.NoValue
	for _, s := range arc {
		if dec[s] == hom.NoValue {
			return []trace.Violation{{
				Property: trace.Termination,
				Detail:   fmt.Sprintf("%s: slot %d undecided after %d rounds", label, s, res.Rounds),
			}}
		}
		if first == hom.NoValue {
			first = dec[s]
		} else if dec[s] != first {
			return []trace.Violation{{
				Property: trace.Agreement,
				Detail:   fmt.Sprintf("%s: slots decided both %d and %d", label, first, dec[s]),
			}}
		}
	}
	return nil
}
