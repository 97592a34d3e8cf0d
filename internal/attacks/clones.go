package attacks

import (
	"errors"
	"fmt"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// Clone-collapse errors.
var (
	ErrCloneSetup = errors.New("attacks: clone collapse needs at least 2 clones of identifier 1")
)

// CloneReport summarises one clone-collapse run (Theorem 19).
type CloneReport struct {
	// Rounds executed.
	Rounds int
	// CloneSlots are the slots of the cloned group (identifier 1, equal
	// inputs).
	CloneSlots []int
	// DivergedAtRound is the first round where two clones produced
	// different sends or different decisions (0 = never, the theorem's
	// prediction).
	DivergedAtRound int
	// Detail describes the divergence, if any.
	Detail string
}

// Lockstep reports whether the clones stayed in perfect lockstep — the
// property Theorem 19's reduction needs.
func (r *CloneReport) Lockstep() bool { return r.DivergedAtRound == 0 }

// CloneCollapse runs the Theorem-19 reduction experiment: in a synchronous
// system with innumerate processes and restricted Byzantine senders, the
// n−ℓ+1 processes sharing identifier 1 and an equal input receive
// identical message sets in every round and therefore behave as perfect
// clones of a single process. This is what collapses an ℓ ≤ 3t homonym
// system to an n = ℓ ≤ 3t classical system (impossible by [13]), proving
// that restricting the Byzantine processes does not help innumerate
// receivers.
//
// The experiment drives the full system (with a restricted Byzantine
// process that sends the same crafted message to every clone — it cannot
// do otherwise profitably, since any asymmetry is a single message per
// recipient and the theorem quantifies over clone-symmetric adversaries)
// and verifies the lockstep property round by round.
func CloneCollapse(p hom.Params, factory func(slot int) engine.Process,
	assignment hom.Assignment, inputs []hom.Value, byzSlot, maxRounds int) (*CloneReport, error) {
	if p.Numerate || !p.RestrictedByzantine {
		return nil, fmt.Errorf("%w (needs innumerate processes and restricted byzantine senders)", ErrCloneSetup)
	}
	var clones []int
	for s, id := range assignment {
		if id == 1 && s != byzSlot {
			clones = append(clones, s)
		}
	}
	if len(clones) < 2 {
		return nil, ErrCloneSetup
	}
	for _, s := range clones[1:] {
		if inputs[s] != inputs[clones[0]] {
			return nil, fmt.Errorf("%w (clone inputs must be equal)", ErrCloneSetup)
		}
	}

	n := len(assignment)
	procs := make([]engine.Process, n)
	for s := 0; s < n; s++ {
		if s != byzSlot {
			procs[s] = factory(s)
		}
	}
	w := NewWorld(procs, assignment, inputs, p, p.Numerate, nil)

	report := &CloneReport{CloneSlots: clones}
	for r := 1; r <= maxRounds; r++ {
		// The restricted Byzantine slot sends one identical message to
		// every process per round (clone-symmetric by construction).
		byzBody := msg.Raw(fmt.Sprintf("byz-round-%d", r))
		w.step(byzSlot, byzBody)
		report.Rounds = r
		if detail := clonesDiverged(w, clones); detail != "" {
			report.DivergedAtRound = r
			report.Detail = detail
			return report, nil
		}
	}
	return report, nil
}

// clonesDiverged compares the last-round sends and the decisions of the
// clone slots; it returns a description of the first divergence found.
func clonesDiverged(w *World, clones []int) string {
	refSends := sendKeys(w.SendsOf(clones[0]))
	refDec, refOK := w.Procs[clones[0]].Decision()
	for _, s := range clones[1:] {
		if got := sendKeys(w.SendsOf(s)); got != refSends {
			return fmt.Sprintf("round %d: slot %d sent %q but slot %d sent %q",
				w.Round(), clones[0], refSends, s, got)
		}
		dec, ok := w.Procs[s].Decision()
		if ok != refOK || (ok && dec != refDec) {
			return fmt.Sprintf("round %d: decision mismatch between slots %d and %d",
				w.Round(), clones[0], s)
		}
	}
	return ""
}

func sendKeys(sends []msg.Send) string {
	out := ""
	for _, s := range sends {
		out += fmt.Sprintf("[%d/%d]%s;", s.Kind, s.To, s.Body.Key())
	}
	return out
}
