package attacks

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/trace"
)

// Partition-attack errors.
var (
	ErrPartitionRegion = errors.New("attacks: partition attack requires 3t < l <= (n+3t)/2")
)

// PartitionReport summarises one run of the Figure-4 attack.
type PartitionReport struct {
	// XSlots and YSlots are the two correct camps (inputs 0 and 1).
	XSlots, YSlots []int
	// ByzSlots are the corrupted slots (identifiers 1..t).
	ByzSlots []int
	// AlphaDecidedRound and BetaDecidedRound are the rounds by which the
	// internal executions α and β fully decided.
	AlphaDecidedRound, BetaDecidedRound int
	// Result is the γ execution's outcome.
	Result *engine.Result
	// Verdict is the property check over γ: a successful attack shows an
	// agreement violation (X decided 0, Y decided 1).
	Verdict trace.Verdict
}

// Succeeded reports whether the attack exhibited the paper's predicted
// agreement violation.
func (r *PartitionReport) Succeeded() bool { return r.Verdict.Has(trace.Agreement) }

// Partition runs the Proposition-4 construction against a partially
// synchronous algorithm given by factory (built for parameters p, which
// must satisfy 3t < ℓ ≤ (n+3t)/2 — the region the paper proves
// unsolvable; psynchom.New builds there, since it checks no condition).
//
// The construction (paper Figure 4):
//
//   - Execution α: identifier 1 is a stack of n−ℓ+1 processes, all other
//     identifiers are singletons; the t processes with identifiers
//     t+1..2t are Byzantine and silent; every correct process has input 0.
//     By validity they decide 0.
//   - Execution β: like α but the stack sizes are rebalanced (identifier
//     ℓ absorbs the padding), identifiers 2t+1..3t are Byzantine-silent,
//     and all inputs are 1. They decide 1.
//   - Execution γ: the real run. The Byzantine processes hold identifiers
//     1..t. Camp X (identifiers 2t+1..ℓ, input 0) receives from the
//     Byzantine slots exactly what their α-counterparts received from
//     identifiers 1..t — including multi-copy sends standing in for the
//     α stack, which is where the unrestricted-Byzantine power is used —
//     while every X↔Y message is suppressed (legal before GST). Camp Y
//     (identifiers t+1..2t and 3t+1..ℓ plus padding, input 1) is fed from
//     β symmetrically. X cannot distinguish γ from α and decides 0; Y
//     cannot distinguish γ from β and decides 1.
//
// At t = 0 the construction degenerates but still applies: n ≥ 2ℓ, so
// each camp holds every identifier, α and β record no Byzantine traffic
// to replay, and the dropped X↔Y messages alone split the decisions.
//
// maxRounds bounds the run; horizon rounds are simulated internally for α
// and β (it must exceed their decision time).
func Partition(p hom.Params, factory func(slot int) engine.Process, maxRounds int) (*PartitionReport, error) {
	n, l, t := p.N, p.L, p.T
	if t < 0 || l <= 3*t || 2*l > n+3*t || l > n {
		return nil, fmt.Errorf("%w (n=%d l=%d t=%d)", ErrPartitionRegion, n, l, t)
	}
	if p.Synchrony != hom.PartiallySynchronous {
		return nil, fmt.Errorf("%w (attack needs the partially synchronous model)", ErrPartitionRegion)
	}
	pad := n - (2*l - 3*t)

	// replay runs one internal execution over the whole horizon, with the
	// holders of identifiers lo..hi Byzantine and silent and every correct
	// input equal to input, and records the per-round sends of identifiers
	// 1..t. It returns the record and the round by which every correct
	// process had decided (0 if one never did).
	replay := func(ids hom.Assignment, input hom.Value, lo, hi int) ([][][]msg.Send, int, error) {
		inputs := make([]hom.Value, len(ids))
		for s := range inputs {
			inputs[s] = input
		}
		rec := &silence{lo: hom.Identifier(lo), hi: hom.Identifier(hi), record: t}
		res, err := construct(engine.Config{Params: p, Assignment: ids, Inputs: inputs, NewProcess: factory,
			Adversary: rec, MaxRounds: maxRounds, ExtraRounds: maxRounds})
		if err != nil || !res.AllDecided {
			return rec.trace, 0, err
		}
		return rec.trace, slices.Max(res.DecidedAt), nil
	}

	// --- Internal execution α -------------------------------------------
	// Identifiers: 1 ×(n−l+1), 2..l ×1. Byzantine-silent: ids t+1..2t.
	alphaIDs := make(hom.Assignment, 0, n)
	for i := 0; i < n-l+1; i++ {
		alphaIDs = append(alphaIDs, 1)
	}
	for id := 2; id <= l; id++ {
		alphaIDs = append(alphaIDs, hom.Identifier(id))
	}
	alphaTrace, alphaDecided, err := replay(alphaIDs, 0, t+1, 2*t)
	if err != nil {
		return nil, err
	}

	// --- Internal execution β -------------------------------------------
	// Identifiers: 1 ×(n−l+1−pad), 2..l−1 ×1, l ×(1+pad). Byzantine-
	// silent: ids 2t+1..3t.
	betaIDs := make(hom.Assignment, 0, n)
	for i := 0; i < n-l+1-pad; i++ {
		betaIDs = append(betaIDs, 1)
	}
	for id := 2; id < l; id++ {
		betaIDs = append(betaIDs, hom.Identifier(id))
	}
	for i := 0; i <= pad; i++ {
		betaIDs = append(betaIDs, hom.Identifier(l))
	}
	betaTrace, betaDecided, err := replay(betaIDs, 1, 2*t+1, 3*t)
	if err != nil {
		return nil, err
	}

	// --- Real execution γ -----------------------------------------------
	// Slots: byz (ids 1..t), X (ids 2t+1..l, input 0), then Y (ids
	// t+1..2t, 3t+1..l−1, and 1+pad copies of id l, input 1).
	gammaIDs := make(hom.Assignment, 0, n)
	inputs := make([]hom.Value, 0, n)
	var byzSlots, xSlots, ySlots []int
	for id := 1; id <= t; id++ {
		byzSlots = append(byzSlots, len(gammaIDs))
		gammaIDs = append(gammaIDs, hom.Identifier(id))
		inputs = append(inputs, 0) // ignored
	}
	for id := 2*t + 1; id <= l; id++ {
		xSlots = append(xSlots, len(gammaIDs))
		gammaIDs = append(gammaIDs, hom.Identifier(id))
		inputs = append(inputs, 0)
	}
	for id := t + 1; id <= 2*t; id++ {
		ySlots = append(ySlots, len(gammaIDs))
		gammaIDs = append(gammaIDs, hom.Identifier(id))
		inputs = append(inputs, 1)
	}
	for id := 3*t + 1; id < l; id++ {
		ySlots = append(ySlots, len(gammaIDs))
		gammaIDs = append(gammaIDs, hom.Identifier(id))
		inputs = append(inputs, 1)
	}
	for i := 0; i <= pad; i++ {
		ySlots = append(ySlots, len(gammaIDs))
		gammaIDs = append(gammaIDs, hom.Identifier(l))
		inputs = append(inputs, 1)
	}

	camp := make([]int, n) // 0 = byz, 1 = X, 2 = Y
	for _, s := range xSlots {
		camp[s] = 1
	}
	for _, s := range ySlots {
		camp[s] = 2
	}

	adv := &partitionAdversary{
		byzSlots:   byzSlots,
		camp:       camp,
		gammaIDs:   gammaIDs,
		alphaTrace: alphaTrace,
		betaTrace:  betaTrace,
	}
	// GST past the last round: drops are allowed for the whole run.
	res, err := construct(engine.Config{Params: p, Assignment: gammaIDs, Inputs: inputs, NewProcess: factory,
		Adversary: adv, GST: maxRounds + 1, MaxRounds: maxRounds})
	if err != nil {
		return nil, err
	}
	return &PartitionReport{
		XSlots:            xSlots,
		YSlots:            ySlots,
		ByzSlots:          byzSlots,
		AlphaDecidedRound: alphaDecided,
		BetaDecidedRound:  betaDecided,
		Result:            res,
		Verdict:           trace.Check(res),
	}, nil
}

// partitionAdversary replays the recorded α and β traffic of identifiers
// 1..t toward camps X and Y respectively, and suppresses every X↔Y
// delivery.
type partitionAdversary struct {
	byzSlots   []int
	camp       []int // 0 byz, 1 X, 2 Y
	gammaIDs   hom.Assignment
	alphaTrace [][][]msg.Send // silence.trace of α
	betaTrace  [][][]msg.Send // silence.trace of β
}

var _ engine.Adversary = (*partitionAdversary)(nil)

// Corrupt implements engine.Adversary.
func (a *partitionAdversary) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int {
	out := append([]int(nil), a.byzSlots...)
	sort.Ints(out)
	return out
}

// Sends implements engine.Adversary: the byz slot holding identifier k sends
// to every X slot what α's identifier-k processes sent (respecting
// identifier-targeted sends), and to every Y slot what β's identifier-k
// processes sent. Note the multi-send: a recorded stack of α processes
// yields several messages to the same recipient in one round, which only
// an unrestricted Byzantine process can do (paper's Proposition 4; by
// Theorem 20 innumerate receivers collapse the copies anyway).
func (a *partitionAdversary) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	id := a.gammaIDs[slot]
	alpha, beta := a.alphaTrace[round-1][id-1], a.betaTrace[round-1][id-1]
	out := view.SendBuffer((len(alpha) + len(beta)) * len(a.camp))
	out = a.emit(out, alpha, 1)
	return a.emit(out, beta, 2)
}

// emit appends to out one copy of each recorded send for every slot of
// camp campWant it reaches.
func (a *partitionAdversary) emit(out []msg.TargetedSend, sends []msg.Send, campWant int) []msg.TargetedSend {
	for j, snd := range sends {
		for to := range a.camp {
			if a.camp[to] != campWant {
				continue
			}
			if snd.Kind == msg.ToIdentifier && a.gammaIDs[to] != snd.To {
				continue
			}
			out = append(out, msg.TargetedSend{ToSlot: to, Body: snd.Body, Forwards: &sends[j]})
		}
	}
	return out
}

// Drop implements engine.Adversary: all X↔Y traffic is suppressed.
func (a *partitionAdversary) Drop(_, from, to int) bool {
	return (a.camp[from] == 1 && a.camp[to] == 2) || (a.camp[from] == 2 && a.camp[to] == 1)
}
