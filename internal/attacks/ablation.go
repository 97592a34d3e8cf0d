package attacks

import (
	"errors"
	"fmt"
	"sort"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/psynchom"
	"homonyms/internal/trace"
)

// Ablation errors.
var ErrAblationSetup = errors.New("attacks: ablation scenario setup invalid")

// SplitLockReport summarises one run of the vote-round ablation (A1).
//
// The paper (§4.2, difference (2) from DLS) introduces the vote superround
// because a phase can have several leaders; its Lemma 8 states that with
// the vote round, no two correct processes ever send ⟨ack v⟩ and ⟨ack v′⟩
// with v ≠ v′ in the same phase. This experiment runs a Byzantine leader
// that sends ⟨lock 0⟩ to one half of the system and ⟨lock 1⟩ to the other
// and observes the ack traffic: with votes enabled the split dies in the
// vote quorum (no conflicting acks, Lemma 8 holds observationally); with
// votes disabled both halves ack their own value in the same phase —
// exactly the inconsistency the vote round exists to prevent.
type SplitLockReport struct {
	// AcksByPhase maps a phase to the distinct values correct processes
	// acked in it.
	AcksByPhase map[int][]hom.Value
	// ConflictPhases lists phases in which correct processes acked two or
	// more different values.
	ConflictPhases []int
	// Result is the underlying execution result.
	Result *engine.Result
	// Verdict is the standard property check (the run may still converge:
	// under this library's canonical smallest-value choice the split
	// self-heals, which EXPERIMENTS.md discusses).
	Verdict trace.Verdict
}

// LemmaEightHolds reports whether every phase had at most one acked value
// among correct processes.
func (r *SplitLockReport) LemmaEightHolds() bool { return len(r.ConflictPhases) == 0 }

// SplitLock runs the A1 ablation: a Byzantine process holding the leader
// identifier of phase `targetPhase` equivocates its lock requests. The
// system is n=6, ℓ=5, t=1 with mixed inputs (so both values are proper
// and quorum-supported by the target phase). Pass opts to select the full
// algorithm or the DisableVote ablation.
func SplitLock(opts psynchom.Options, targetPhase, maxRounds int) (*SplitLockReport, error) {
	p := hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}
	// The Byzantine slot 0 is the sole holder of identifier 2, which
	// leads phase 1 — the first phase in which proper sets have
	// cross-pollinated (so both values have ℓ−t propose support) but no
	// lock has been taken yet. Identifier 1 is doubled among the correct
	// slots; phase 0, led by it, takes no lock because phase-0 proposals
	// still carry singleton input sets below the quorum.
	assignment := hom.Assignment{2, 1, 1, 3, 4, 5}
	inputs := []hom.Value{0, 0, 1, 0, 1, 0}
	if hom.LeaderID(targetPhase, p.L) != 2 {
		return nil, fmt.Errorf("%w (target phase %d is not led by identifier 2)", ErrAblationSetup, targetPhase)
	}
	adv := &splitLockAdversary{byzSlot: 0, targetPhase: targetPhase, n: p.N}
	factory := psynchom.New(p, opts)
	res, err := engine.Run(engine.Config{
		Params:        p,
		Assignment:    assignment,
		Inputs:        inputs,
		NewProcess:    factory,
		Adversary:     adv,
		GST:           1,
		MaxRounds:     maxRounds,
		RecordTraffic: true,
	})
	if err != nil {
		return nil, err
	}
	report := &SplitLockReport{
		AcksByPhase: map[int][]hom.Value{},
		Result:      res,
		Verdict:     trace.Check(res),
	}
	seen := map[int]map[hom.Value]bool{}
	for _, d := range res.Traffic {
		if res.IsCorrupted(d.FromSlot) {
			continue
		}
		ap, ok := d.Msg.Body.(psynchom.AckPayload)
		if !ok {
			continue
		}
		if seen[ap.Phase] == nil {
			seen[ap.Phase] = map[hom.Value]bool{}
		}
		seen[ap.Phase][ap.Val] = true
	}
	for phase, vals := range seen {
		var list []hom.Value
		for v := range vals {
			list = append(list, v)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		report.AcksByPhase[phase] = list
		if len(list) > 1 {
			report.ConflictPhases = append(report.ConflictPhases, phase)
		}
	}
	sort.Ints(report.ConflictPhases)
	return report, nil
}

// splitLockAdversary stays silent except in the target phase's lock round,
// where it sends ⟨lock 0⟩ to the lower half of the slots and ⟨lock 1⟩ to
// the upper half.
type splitLockAdversary struct {
	byzSlot     int
	targetPhase int
	n           int
}

var _ engine.Adversary = (*splitLockAdversary)(nil)

func (a *splitLockAdversary) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int {
	return []int{a.byzSlot}
}

func (a *splitLockAdversary) Sends(round, slot int, _ *engine.View) []msg.TargetedSend {
	lockRound := a.targetPhase*hom.RoundsPerPhase + 3
	if round != lockRound {
		return nil
	}
	var out []msg.TargetedSend
	for to := 0; to < a.n; to++ {
		val := hom.Value(0)
		if to >= a.n/2 {
			val = 1
		}
		out = append(out, msg.TargetedSend{
			ToSlot: to,
			Body:   psynchom.LockPayload{Phase: a.targetPhase, Val: val},
		})
	}
	return out
}

func (a *splitLockAdversary) Drop(int, int, int) bool { return false }

// RelayLatencyReport summarises one run of the decide-relay ablation (A2).
//
// The paper (§4.2, difference (3) from DLS) adds ⟨decide⟩ relays so that a
// correct process that shares its identifier with a Byzantine process can
// terminate. In this library's implementation the deterministic choice of
// lock values is globally canonical (smallest supported value), which is
// strong enough that every correct process eventually decides in a phase
// its own identifier leads; the relay's measurable effect is therefore
// termination *latency*: with the relay, everyone decides within ~2 phases
// of the first decision; without it, the last decision waits for the
// slowest identifier's turn in the leader rotation — Θ(ℓ) phases. The
// experiment measures both.
type RelayLatencyReport struct {
	// FirstDecisionRound and LastDecisionRound bracket the correct
	// processes' decisions.
	FirstDecisionRound, LastDecisionRound int
	// SpreadPhases is the phase distance between first and last decision.
	SpreadPhases int
	// Result is the underlying execution.
	Result *engine.Result
	// Verdict is the standard property check.
	Verdict trace.Verdict
}

// RelayLatency runs the A2 ablation on an n = l+1 system (one Byzantine
// homonym sharing identifier 1 with a correct process) for the given
// identifier count l >= 5 and options.
func RelayLatency(l int, opts psynchom.Options, maxRounds int) (*RelayLatencyReport, error) {
	if l < 5 {
		return nil, fmt.Errorf("%w (need l >= 5 so that 2l > n+3t with n = l+1, t = 1)", ErrAblationSetup)
	}
	n := l + 1
	p := hom.Params{N: n, L: l, T: 1, Synchrony: hom.PartiallySynchronous}
	assignment := make(hom.Assignment, n)
	assignment[0] = 1 // Byzantine homonym
	assignment[1] = 1 // correct victim sharing identifier 1
	for s := 2; s < n; s++ {
		assignment[s] = hom.Identifier(s)
	}
	inputs := make([]hom.Value, n)
	for s := range inputs {
		inputs[s] = hom.Value(s % 2)
	}
	factory := psynchom.New(p, opts)
	res, err := engine.Run(engine.Config{
		Params:     p,
		Assignment: assignment,
		Inputs:     inputs,
		NewProcess: factory,
		Adversary:  &adversaryEquivLocks{byzSlot: 0, n: n, l: l},
		GST:        1,
		MaxRounds:  maxRounds,
	})
	if err != nil {
		return nil, err
	}
	report := &RelayLatencyReport{Result: res, Verdict: trace.Check(res)}
	first, last := 0, 0
	for _, s := range res.CorrectSlots() {
		r := res.DecidedAt[s]
		if r == 0 {
			continue
		}
		if first == 0 || r < first {
			first = r
		}
		if r > last {
			last = r
		}
	}
	report.FirstDecisionRound, report.LastDecisionRound = first, last
	if first > 0 {
		report.SpreadPhases = (last - first) / hom.RoundsPerPhase
	}
	return report, nil
}

// adversaryEquivLocks is a Byzantine homonym co-leader that sends
// conflicting lock requests whenever its identifier leads a phase (noise
// against the vote quorum; harmless to safety but realistic pressure).
type adversaryEquivLocks struct {
	byzSlot, n, l int
}

var _ engine.Adversary = (*adversaryEquivLocks)(nil)

func (a *adversaryEquivLocks) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int {
	return []int{a.byzSlot}
}

func (a *adversaryEquivLocks) Sends(round, slot int, _ *engine.View) []msg.TargetedSend {
	phase, pos := hom.PhasePos(round)
	if pos != 3 || hom.LeaderID(phase, a.l) != 1 {
		return nil
	}
	var out []msg.TargetedSend
	for to := 0; to < a.n; to++ {
		out = append(out, msg.TargetedSend{
			ToSlot: to,
			Body:   psynchom.LockPayload{Phase: phase, Val: hom.Value(to % 2)},
		})
	}
	return out
}

func (a *adversaryEquivLocks) Drop(int, int, int) bool { return false }
