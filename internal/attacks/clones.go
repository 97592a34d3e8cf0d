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
// for maxRounds rounds and verifies the lockstep property round by round.
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

	watch := &cloneWatch{byzSlot: byzSlot, clones: clones}
	res, err := construct(engine.Config{Params: p, Assignment: assignment, Inputs: inputs, NewProcess: factory,
		Adversary: watch, MaxRounds: maxRounds, ExtraRounds: maxRounds})
	if err != nil {
		return nil, err
	}
	report := &CloneReport{Rounds: res.Rounds, CloneSlots: clones}
	// Decisions are irrevocable, so the first round after which two clones
	// differ in whether or what they decided follows from DecidedAt. A
	// split in their sends, seen before the round's delivery, wins a tie.
	for _, s := range clones[1:] {
		if r := decisionSplit(res, clones[0], s); r != 0 && (report.DivergedAtRound == 0 || r < report.DivergedAtRound) {
			report.DivergedAtRound = r
			report.Detail = fmt.Sprintf("round %d: decision mismatch between slots %d and %d", r, clones[0], s)
		}
	}
	if watch.round != 0 && (report.DivergedAtRound == 0 || watch.round <= report.DivergedAtRound) {
		report.DivergedAtRound, report.Detail = watch.round, watch.detail
	}
	if report.DivergedAtRound != 0 {
		report.Rounds = report.DivergedAtRound
	}
	return report, nil
}

// decisionSplit returns the first round after which slots a and b differ
// in whether or what they decided, or 0 if they never do.
func decisionSplit(res *engine.Result, a, b int) int {
	ra, rb := res.DecidedAt[a], res.DecidedAt[b]
	if ra == rb && (ra == 0 || res.Decisions[a] == res.Decisions[b]) {
		return 0
	}
	if ra == 0 || (rb != 0 && rb < ra) {
		return rb
	}
	return ra
}

// cloneWatch is the restricted Byzantine slot: every round it sends one
// identical message to every other slot (clone-symmetric by
// construction), and it records, off the rushing View, the first round in
// which two clones are about to send differently.
type cloneWatch struct {
	byzSlot int
	clones  []int
	round   int // first round whose clone sends differ; 0 = none
	detail  string
}

var _ engine.Adversary = (*cloneWatch)(nil)

// Corrupt implements engine.Adversary.
func (a *cloneWatch) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int {
	return []int{a.byzSlot}
}

// Sends implements engine.Adversary.
func (a *cloneWatch) Sends(round, _ int, view *engine.View) []msg.TargetedSend {
	if a.round == 0 {
		ref := sendKeys(view.SendsOf(a.clones[0]))
		for _, s := range a.clones[1:] {
			if got := sendKeys(view.SendsOf(s)); got != ref {
				a.round = round
				a.detail = fmt.Sprintf("round %d: slot %d sent %q but slot %d sent %q", round, a.clones[0], ref, s, got)
				break
			}
		}
	}
	body := msg.Raw(fmt.Sprintf("byz-round-%d", round))
	out := make([]msg.TargetedSend, 0, len(view.Assignment)-1)
	for to := range view.Assignment {
		if to != a.byzSlot {
			out = append(out, msg.TargetedSend{ToSlot: to, Body: body})
		}
	}
	return out
}

// Drop implements engine.Adversary: the model is synchronous.
func (a *cloneWatch) Drop(int, int, int) bool { return false }

func sendKeys(sends []msg.Send) string {
	out := ""
	for _, s := range sends {
		out += fmt.Sprintf("[%d/%d]%s;", s.Kind, s.To, s.Body.Key())
	}
	return out
}
