// Package psynchom implements the paper's Figure-5 algorithm: Byzantine
// agreement in the basic partially synchronous model for n processes with
// ℓ identifiers, tolerating t Byzantine faults whenever ℓ > (n+3t)/2
// (Proposition 5, Theorem 13). It works for innumerate processes: every
// threshold counts distinct identifiers.
//
// The algorithm follows Dwork–Lynch–Stockmeyer with three homonym-specific
// changes, each of which is independently switchable for the ablation
// experiments:
//
//  1. Quorums are sets of ℓ−t distinct identifiers. Because
//     2ℓ > n+3t, any two such quorums share an identifier held by exactly
//     one correct process and no Byzantine process (Lemma 7).
//  2. A vote superround sits between the leader's lock request and the
//     lock/ack step. With homonyms a phase can have several leaders
//     (every holder of the leader identifier), and without the vote round
//     two leaders could drive disjoint halves to lock — and decide —
//     different values. Options.DisableVote removes it (ablation A1).
//  3. Deciders relay ⟨decide v⟩ messages; a process that receives t+1 of
//     them decides too. This is what lets a correct process that shares
//     its identifier with a Byzantine process terminate.
//     Options.DisableDecideRelay removes it (ablation A2).
//
// Phase structure (phase ph = 0, 1, 2, ... of 4 superrounds = 8 rounds;
// the leader identifier of phase ph is (ph mod ℓ)+1):
//
//	SR1  Broadcast ⟨propose V, ph⟩ where V is the proper values not
//	     excluded by a lock on another value.
//	SR2  Each leader that accepted ⟨propose Vj, ph⟩ from ℓ−t identifiers
//	     with some common v sends ⟨lock v, ph⟩ to all.
//	SR3  A process that received ⟨lock v, ph⟩ from the leader identifier
//	     and has the same ℓ−t propose support Broadcasts ⟨vote v, ph⟩.
//	SR4  A process that accepted ⟨vote v, ph⟩ from ℓ−t identifiers locks
//	     (v, ph) and sends ⟨ack v, ph⟩; a leader that receives ℓ−t acks
//	     for its value decides it. Deciders then send ⟨decide v⟩; t+1
//	     decide messages let anyone decide. Finally locks superseded by
//	     accepted votes for another value in a later phase are released.
//
// Proper values: every process attaches its proper set to every round's
// traffic; a value reported by t+1 identifiers becomes proper, and a
// process that hears 2t+1 identifiers with no t+1-supported value makes
// every domain value proper (the correct processes provably have at least
// two distinct inputs then).
package psynchom

import (
	"maps"
	"slices"

	"homonyms/internal/authbcast"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// Options toggle the homonym-specific mechanisms for ablation experiments.
// The zero value is the full Figure-5 algorithm.
type Options struct {
	// DisableVote removes the vote superround: processes lock directly on
	// a leader's lock request (the original DLS rule). Unsafe with
	// homonym leaders — ablation A1.
	DisableVote bool
	// DisableDecideRelay removes the ⟨decide⟩ relay: only quorum-observing
	// leaders decide. Breaks termination for correct processes sharing an
	// identifier with a Byzantine process — ablation A2.
	DisableDecideRelay bool
}

// New returns a Figure-5 process factory. It does not check the paper's
// condition 2ℓ > n + 3t: core.Select and the registry entry's Claims do.
// The impossibility experiments run it outside that region, where the
// paper's Figure-4 partition attack (package attacks) defeats it.
func New(p hom.Params, opts Options) func(slot int) engine.Process {
	return func(int) engine.Process {
		return &Process{opts: opts}
	}
}

// ---------------------------------------------------------------------------
// Payloads
// ---------------------------------------------------------------------------

// Every payload implements msg.ScratchKeyer on top of msg.Payload: the
// engines build the canonical key in round scratch and intern it, so
// the send side allocates no key strings; Key is defined through
// BuildKey so the two can never diverge.

// ProposePayload is the body of the SR1 authenticated broadcast.
type ProposePayload struct {
	Phase int
	V     hom.ValueSet
}

// BuildKey implements msg.ScratchKeyer.
func (p ProposePayload) BuildKey(kb *msg.KeyBuilder) {
	kb.Reset("propose").Int(p.Phase).Values(p.V)
}

// Key implements msg.Payload.
func (p ProposePayload) Key() string { return msg.ScratchKey(p) }

// VotePayload is the body of the SR3 authenticated broadcast.
type VotePayload struct {
	Phase int
	Val   hom.Value
}

// BuildKey implements msg.ScratchKeyer.
func (p VotePayload) BuildKey(kb *msg.KeyBuilder) {
	kb.Reset("vote").Int(p.Phase).Value(p.Val)
}

// Key implements msg.Payload.
func (p VotePayload) Key() string { return msg.ScratchKey(p) }

// LockPayload is the leader's direct ⟨lock v, ph⟩ message.
type LockPayload struct {
	Phase int
	Val   hom.Value
}

// BuildKey implements msg.ScratchKeyer.
func (p LockPayload) BuildKey(kb *msg.KeyBuilder) {
	kb.Reset("lock").Int(p.Phase).Value(p.Val)
}

// Key implements msg.Payload.
func (p LockPayload) Key() string { return msg.ScratchKey(p) }

// AckPayload is the direct ⟨ack v, ph⟩ message.
type AckPayload struct {
	Phase int
	Val   hom.Value
}

// BuildKey implements msg.ScratchKeyer.
func (p AckPayload) BuildKey(kb *msg.KeyBuilder) {
	kb.Reset("ack").Int(p.Phase).Value(p.Val)
}

// Key implements msg.Payload.
func (p AckPayload) Key() string { return msg.ScratchKey(p) }

// DecidePayload is the direct ⟨decide v⟩ relay message.
type DecidePayload struct {
	Val hom.Value
}

// BuildKey implements msg.ScratchKeyer.
func (p DecidePayload) BuildKey(kb *msg.KeyBuilder) { kb.Reset("decide").Value(p.Val) }

// Key implements msg.Payload.
func (p DecidePayload) Key() string { return msg.ScratchKey(p) }

// ProperPayload carries the sender's proper set, attached to every round.
type ProperPayload struct {
	V hom.ValueSet
}

// BuildKey implements msg.ScratchKeyer.
func (p ProperPayload) BuildKey(kb *msg.KeyBuilder) { kb.Reset("proper").Values(p.V) }

// Key implements msg.Payload.
func (p ProperPayload) Key() string { return msg.ScratchKey(p) }

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

// Process is the Figure-5 state machine for one process. It implements
// engine.Process.
type Process struct {
	opts   Options
	params hom.Params
	id     hom.Identifier
	bc     *authbcast.Broadcaster

	proper   hom.ValueSet
	locks    map[hom.Value]int // value -> phase of the latest lock on it
	decision hom.Value
	// properSend is the standing ⟨proper V⟩ send, a boxed snapshot of
	// proper re-sent until proper grows past its properSent values.
	properSend msg.Send
	properMemo msg.StampMemo
	properSent int
	sends      []msg.Send // Prepare's result buffer, valid for its round

	// Cumulative accept bookkeeping.
	proposeAcc map[int]map[hom.Identifier]hom.ValueSet       // phase -> id -> union of accepted V
	voteAcc    map[int]map[hom.Value]map[hom.Identifier]bool // phase -> val -> supporting ids

	// Per-phase transient state.
	lockSeen      map[hom.Value]bool // lock values received from the leader identifier this phase
	leaderLockVal hom.Value          // the value this process sent in its own lock message (if leader)

	// Round scratch of Receive's one pass over the inbox (scan), owned by
	// the process and reused every round; no state survives a round in it.
	reporters idTally     // one row: identifiers that sent any proper set
	supported idTally     // value -> identifiers whose proper set holds it
	direct    idTally     // the round's ⟨ack⟩ (pos 7) or ⟨decide⟩ (pos 8) support
	valBuf    []hom.Value // a proper set's members
}

var _ engine.Process = (*Process)(nil)

// Init implements engine.Process.
func (pr *Process) Init(ctx engine.Context) {
	pr.params = ctx.Params
	pr.id = ctx.ID
	// New's validation guarantees l > 3t here (2l > n+3t and n >= l).
	bc, err := authbcast.New(ctx.Params.L, ctx.Params.T)
	if err != nil {
		// Unreachable after New's validation; fail loudly in tests.
		panic("psynchom: " + err.Error())
	}
	pr.bc = bc
	pr.proper = hom.NewValueSet(ctx.Input)
	pr.locks = make(map[hom.Value]int)
	pr.decision = hom.NoValue
	pr.proposeAcc = make(map[int]map[hom.Identifier]hom.ValueSet)
	pr.voteAcc = make(map[int]map[hom.Value]map[hom.Identifier]bool)
	pr.resetPhase()
}

func (pr *Process) resetPhase() {
	pr.lockSeen = make(map[hom.Value]bool)
	pr.leaderLockVal = hom.NoValue
}

func (pr *Process) isLeader(phase int) bool {
	return pr.id == hom.LeaderID(phase, pr.params.L)
}

// Prepare implements engine.Process.
func (pr *Process) Prepare(round int) []msg.Send {
	phase, pos := hom.PhasePos(round)
	if pos == 1 {
		pr.resetPhase()
	}
	var direct msg.Payload // the round's one directly sent message, if any
	switch pos {
	case 1: // SR1 round 1: propose.
		pr.bc.Broadcast(ProposePayload{Phase: phase, V: pr.proposableValues()})
	case 3: // SR2 round 1: leaders request a lock.
		if pr.isLeader(phase) {
			if v, ok := pr.pickLockValue(phase); ok {
				pr.leaderLockVal = v
				direct = LockPayload{Phase: phase, Val: v}
			}
		}
	case 5: // SR3 round 1: vote for a supported lock request.
		if !pr.opts.DisableVote {
			if v, ok := pr.pickVoteValue(phase); ok {
				pr.bc.Broadcast(VotePayload{Phase: phase, Val: v})
			}
		}
	case 7: // SR4 round 1: lock and acknowledge.
		if v, ok := pr.pickAckValue(phase); ok {
			pr.locks[v] = phase
			direct = AckPayload{Phase: phase, Val: v}
		}
	case 8: // SR4 round 2: relay decisions.
		if !pr.opts.DisableDecideRelay && pr.decision != hom.NoValue {
			direct = DecidePayload{Val: pr.decision}
		}
	}
	// Broadcast-layer traffic (init/echo) and the proper set ride along
	// every round. The standing echoes make this list long in late rounds
	// (~1600 sends), though the engine stamps and delivers only the ones
	// it did not carry in the round before — Receive walks that delta —
	// and it lives for the round, so it is built in place: a list per
	// round was a third of the execution's bytes.
	sends := pr.sends[:0]
	if direct != nil {
		sends = append(sends, msg.Broadcast(direct))
	}
	sends = append(sends, pr.bc.Outgoing(round)...)
	if n := pr.proper.Len(); pr.properSend.Body == nil || n != pr.properSent {
		pr.properMemo, pr.properSent = msg.StampMemo{}, n
		pr.properSend = msg.Send{Kind: msg.ToAll, Body: ProperPayload{V: pr.proper.Clone()}, Memo: &pr.properMemo}
	}
	pr.sends = append(sends, pr.properSend)
	return pr.sends
}

// proposableValues returns the paper's V: proper values v such that no
// lock (w, ∗) with w ≠ v is held.
func (pr *Process) proposableValues() hom.ValueSet {
	out := hom.NewValueSet()
	for _, v := range pr.proper.Values() {
		excluded := false
		for w := range pr.locks {
			if w != v {
				excluded = true
				break
			}
		}
		if !excluded {
			out.Add(v)
		}
	}
	return out
}

// proposeSupport counts the distinct identifiers j with an accepted
// ⟨propose Vj, phase⟩ such that v ∈ Vj.
func (pr *Process) proposeSupport(phase int, v hom.Value) int {
	n := 0
	for _, set := range pr.proposeAcc[phase] {
		if set.Contains(v) {
			n++
		}
	}
	return n
}

// pickLockValue returns the smallest value with ℓ−t propose support
// (Figure 5, lines 10–12).
func (pr *Process) pickLockValue(phase int) (hom.Value, bool) {
	best, ok := hom.NoValue, false
	for _, set := range pr.proposeAcc[phase] {
		for _, v := range set.Values() {
			if (!ok || v < best) && pr.proposeSupport(phase, v) >= pr.params.L-pr.params.T {
				best, ok = v, true
			}
		}
	}
	return best, ok
}

// pickVoteValue returns the smallest value v with both a ⟨lock v, phase⟩
// received from the leader identifier and ℓ−t propose support (Figure 5,
// lines 14–16).
func (pr *Process) pickVoteValue(phase int) (hom.Value, bool) {
	best, ok := hom.NoValue, false
	for v := range pr.lockSeen {
		if (!ok || v < best) && pr.proposeSupport(phase, v) >= pr.params.L-pr.params.T {
			best, ok = v, true
		}
	}
	return best, ok
}

// pickAckValue returns the value to lock and acknowledge in SR4. With the
// vote round enabled this is a value with ℓ−t accepted votes (lines
// 18–20); in the DisableVote ablation it degenerates to the original DLS
// rule (lock on the leader's request directly).
func (pr *Process) pickAckValue(phase int) (hom.Value, bool) {
	if pr.opts.DisableVote {
		return pr.pickVoteValue(phase)
	}
	best, ok := hom.NoValue, false
	for v, ids := range pr.voteAcc[phase] {
		if (!ok || v < best) && len(ids) >= pr.params.L-pr.params.T {
			best, ok = v, true
		}
	}
	return best, ok
}

// Receive implements engine.Process.
func (pr *Process) Receive(round int, in *msg.Inbox) {
	phase, pos := hom.PhasePos(round)

	// Broadcast layer: fold new accepts into the cumulative tables. Both
	// passes read only the round's delta: the standing echoes the engine
	// spared were counted when first delivered, and scan never reads one.
	in = in.Delta()
	for _, acc := range pr.bc.Ingest(round, in) {
		switch body := acc.Body.(type) {
		case ProposePayload:
			if body.Phase < 0 {
				continue
			}
			byID := pr.proposeAcc[body.Phase]
			if byID == nil {
				byID = make(map[hom.Identifier]hom.ValueSet)
				pr.proposeAcc[body.Phase] = byID
			}
			set := byID[acc.ID] // a value: the union goes back in
			pr.valBuf = body.V.AppendValues(pr.valBuf[:0])
			set.AddAll(pr.valBuf)
			byID[acc.ID] = set
		case VotePayload:
			if body.Phase < 0 || body.Val == hom.NoValue {
				continue
			}
			byVal := pr.voteAcc[body.Phase]
			if byVal == nil {
				byVal = make(map[hom.Value]map[hom.Identifier]bool)
				pr.voteAcc[body.Phase] = byVal
			}
			if byVal[body.Val] == nil {
				byVal[body.Val] = make(map[hom.Identifier]bool)
			}
			byVal[body.Val][acc.ID] = true
		}
	}

	// Everything else arrives directly: one pass sorts it into the
	// round's tallies.
	tallyAcks := pos == 7 && pr.isLeader(phase) && pr.decision == hom.NoValue && pr.leaderLockVal != hom.NoValue
	tallyDecides := pos == 8 && !pr.opts.DisableDecideRelay && pr.decision == hom.NoValue
	pr.scan(in, pr.bc.Unclaimed(), phase, pos, tallyAcks, tallyDecides)

	// Proper-set maintenance happens on every round's traffic.
	pr.updateProper()

	switch {
	case tallyAcks: // SR4 round 1: a leader with ℓ−t acks for its lock value decides it.
		if v, ok := pr.direct.minSupported(pr.params.L - pr.params.T); ok {
			pr.decision = v
		}
	case tallyDecides: // SR4 round 2: t+1 ⟨decide v⟩ let anyone decide v.
		if v, ok := pr.direct.minSupported(pr.params.T + 1); ok {
			pr.decision = v
		}
	}
	if pos == 8 {
		pr.releaseLocks()
	}
}

// scan is Receive's single pass over the directly sent (non-broadcast)
// messages of the round's inbox: the positions at, those the broadcast
// layer left unclaimed — the echoes it counted never reach this type
// switch. Every round it tallies the proper
// sets (reporters, supported); in SR2 round 1 it records the leader
// identifier's lock requests; when asked it tallies, into direct, the
// ⟨ack⟩s for this process's own lock value or the ⟨decide⟩s.
func (pr *Process) scan(in *msg.Inbox, at []int32, phase, pos int, tallyAcks, tallyDecides bool) {
	l := pr.params.L
	pr.reporters.reset(l)
	pr.supported.reset(l)
	pr.direct.reset(l)
	leader := hom.LeaderID(phase, l)
	for _, i32 := range at {
		i := int(i32)
		switch body := in.BodyAt(i).(type) {
		case ProperPayload:
			id := in.SenderAt(i)
			pr.reporters.add(0, id)
			pr.valBuf = body.V.AppendValues(pr.valBuf[:0])
			for _, v := range pr.valBuf {
				pr.supported.add(v, id)
			}
		case LockPayload:
			if pos == 3 && body.Phase == phase && body.Val != hom.NoValue && in.SenderAt(i) == leader {
				pr.lockSeen[body.Val] = true
			}
		case AckPayload:
			if tallyAcks && body.Phase == phase && body.Val == pr.leaderLockVal {
				pr.direct.add(body.Val, in.SenderAt(i))
			}
		case DecidePayload:
			if tallyDecides && body.Val != hom.NoValue {
				pr.direct.add(body.Val, in.SenderAt(i))
			}
		}
	}
}

// releaseLocks applies Figure 5, lines 27–30: a lock (v1, ph1) is removed
// once ℓ−t identifiers' votes are accepted for another value in a later
// phase.
func (pr *Process) releaseLocks() {
	for v1, ph1 := range pr.locks {
		released := false
		for ph2, byVal := range pr.voteAcc {
			if ph2 <= ph1 {
				continue
			}
			for v2, ids := range byVal {
				if v2 != v1 && len(ids) >= pr.params.L-pr.params.T {
					released = true
					break
				}
			}
			if released {
				break
			}
		}
		if released {
			delete(pr.locks, v1)
		}
	}
}

// updateProper applies the proper-set rules to the round's tallies (scan):
// a value in the proper sets of t+1 identifiers becomes proper, and 2t+1
// reporting identifiers without any such value make the whole domain
// proper.
func (pr *Process) updateProper() {
	anySupported := false
	for row, v := range pr.supported.vals {
		if pr.supported.support(row) >= pr.params.T+1 {
			pr.proper.Add(v)
			anySupported = true
		}
	}
	if !anySupported && len(pr.reporters.vals) > 0 && pr.reporters.support(0) >= 2*pr.params.T+1 {
		pr.proper.AddAll(pr.params.EffectiveDomain())
	}
}

// Decision implements engine.Process.
func (pr *Process) Decision() (hom.Value, bool) {
	return pr.decision, pr.decision != hom.NoValue
}

// Release implements engine.Releaser: the engines call it after the
// execution, returning the broadcast layer's arena-backed table to its
// pool.
func (pr *Process) Release() {
	if pr.bc != nil {
		pr.bc.Release()
	}
}

// CloneProcess implements engine.Cloner: a deep copy sharing no mutable
// state — the accept tables, locks and the broadcast layer are forked;
// value sets are never written in place, so copies share them.
func (pr *Process) CloneProcess() engine.Process {
	cp := &Process{
		opts:          pr.opts,
		params:        pr.params,
		id:            pr.id,
		bc:            pr.bc.Clone(),
		proper:        pr.proper.Clone(),
		locks:         maps.Clone(pr.locks),
		decision:      pr.decision,
		proposeAcc:    make(map[int]map[hom.Identifier]hom.ValueSet, len(pr.proposeAcc)),
		voteAcc:       make(map[int]map[hom.Value]map[hom.Identifier]bool, len(pr.voteAcc)),
		lockSeen:      maps.Clone(pr.lockSeen),
		leaderLockVal: pr.leaderLockVal,
	}
	for ph, byID := range pr.proposeAcc {
		cp.proposeAcc[ph] = maps.Clone(byID)
	}
	for ph, byVal := range pr.voteAcc {
		m := make(map[hom.Value]map[hom.Identifier]bool, len(byVal))
		for v, ids := range byVal {
			m[v] = maps.Clone(ids)
		}
		cp.voteAcc[ph] = m
	}
	return cp
}

// StateFingerprint implements engine.StateHasher: a deterministic fold of
// the full observable state — maps iterated in sorted key order, value
// sets in their sorted order, the broadcast layer through its arena-order
// Fingerprint — using canonical keys only.
func (pr *Process) StateFingerprint() msg.StateHash {
	h := msg.NewStateHash().Int(int(pr.decision)).Int(int(pr.leaderLockVal))
	h = hashValueSet(h, pr.proper)
	h = h.Int(len(pr.locks))
	for _, v := range slices.Sorted(maps.Keys(pr.locks)) {
		h = h.Int(int(v)).Int(pr.locks[v])
	}
	h = h.Int(len(pr.lockSeen))
	for _, v := range slices.Sorted(maps.Keys(pr.lockSeen)) {
		h = h.Int(int(v))
	}
	h = h.Int(len(pr.proposeAcc))
	for _, ph := range slices.Sorted(maps.Keys(pr.proposeAcc)) {
		byID := pr.proposeAcc[ph]
		h = h.Int(ph).Int(len(byID))
		for _, id := range slices.Sorted(maps.Keys(byID)) {
			h = hashValueSet(h.Int(int(id)), byID[id])
		}
	}
	h = h.Int(len(pr.voteAcc))
	for _, ph := range slices.Sorted(maps.Keys(pr.voteAcc)) {
		byVal := pr.voteAcc[ph]
		h = h.Int(ph).Int(len(byVal))
		for _, v := range slices.Sorted(maps.Keys(byVal)) {
			ids := byVal[v]
			h = h.Int(int(v)).Int(len(ids))
			for _, id := range slices.Sorted(maps.Keys(ids)) {
				h = h.Int(int(id))
			}
		}
	}
	return pr.bc.Fingerprint(h)
}

// hashValueSet folds a value set's length and members, ascending.
func hashValueSet(h msg.StateHash, s hom.ValueSet) msg.StateHash {
	h = h.Int(s.Len())
	for _, v := range s.Values() {
		h = h.Int(int(v))
	}
	return h
}
