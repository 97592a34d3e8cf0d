// Package psyncnum implements the paper's Figure-7 algorithm: Byzantine
// agreement for numerate processes against restricted Byzantine processes
// (Appendix A.3.2). Safety requires only n > 3t; liveness requires ℓ > t —
// together these are exactly the conditions of Theorems 14 and 15, so the
// algorithm works with as few as t+1 identifiers, in both the synchronous
// and the partially synchronous model (a synchronous run is the special
// case with no message drops).
//
// The phase skeleton mirrors Figure 5 (propose / lock / vote / ack over
// four superrounds), but every threshold is a count of *witnesses* rather
// than of distinct identifiers: when the multiplicity broadcast (package
// numbcast) performs Accept(i, αᵢ, m, r), the process credits m with αᵢ
// witnesses for identifier i. The witness total for m is kept as the sum
// over identifiers of the largest accepted multiplicity — at least the
// number of correct processes that broadcast m, and at most that number
// plus the number of Byzantine processes (unforgeability), which is what
// Lemmas 30–31 need.
//
// Termination does not use a decide relay: because ℓ > t, some identifier
// is held only by correct processes; in a post-GST phase led by that
// identifier every correct process receives the same lock messages,
// chooses the same value, and the whole system decides in that phase
// (Proposition 40).
package psyncnum

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/numbcast"
)

// New returns a Figure-7 process factory. It does not check the paper's
// conditions n > 3t and ℓ > t, nor the model switches: core.Select and
// the registry entry's Claims do. The impossibility experiments run it
// at ℓ ≤ t, where Proposition 16's mirror adversary (package attacks)
// defeats it.
func New(p hom.Params) func(slot int) engine.Process {
	return func(int) engine.Process {
		return &Process{}
	}
}

// ---------------------------------------------------------------------------
// Payloads
// ---------------------------------------------------------------------------

// ProposePayload is the body of one per-value SR1 broadcast
// (Broadcast(i, propose v, 4ph)).
type ProposePayload struct {
	Phase int
	Val   hom.Value
}

// BuildKey implements msg.ScratchKeyer.
func (p ProposePayload) BuildKey(kb *msg.KeyBuilder) {
	kb.Reset("npropose").Int(p.Phase).Value(p.Val)
}

// Key implements msg.Payload.
func (p ProposePayload) Key() string { return msg.ScratchKey(p) }

// VotePayload is the body of the SR3 broadcast
// (Broadcast(i, vote v, 4ph+2)).
type VotePayload struct {
	Phase int
	Val   hom.Value
}

// BuildKey implements msg.ScratchKeyer.
func (p VotePayload) BuildKey(kb *msg.KeyBuilder) {
	kb.Reset("nvote").Int(p.Phase).Value(p.Val)
}

// Key implements msg.Payload.
func (p VotePayload) Key() string { return msg.ScratchKey(p) }

// LockPayload is the leader's direct ⟨lock, v, ph⟩ message.
type LockPayload struct {
	Phase int
	Val   hom.Value
}

// BuildKey implements msg.ScratchKeyer.
func (p LockPayload) BuildKey(kb *msg.KeyBuilder) {
	kb.Reset("nlock").Int(p.Phase).Value(p.Val)
}

// Key implements msg.Payload.
func (p LockPayload) Key() string { return msg.ScratchKey(p) }

// AckPayload is the direct ⟨ack, v, ph⟩ message.
type AckPayload struct {
	Phase int
	Val   hom.Value
}

// BuildKey implements msg.ScratchKeyer.
func (p AckPayload) BuildKey(kb *msg.KeyBuilder) {
	kb.Reset("nack").Int(p.Phase).Value(p.Val)
}

// Key implements msg.Payload.
func (p AckPayload) Key() string { return msg.ScratchKey(p) }

// ProperPayload carries the sender's proper set, attached every round.
type ProperPayload struct {
	V hom.ValueSet
}

// BuildKey implements msg.ScratchKeyer.
func (p ProperPayload) BuildKey(kb *msg.KeyBuilder) { kb.Reset("nproper").Values(p.V) }

// Key implements msg.Payload.
func (p ProperPayload) Key() string { return msg.ScratchKey(p) }

// Envelope packs a process's entire round traffic (broadcast bundle,
// proper set, and any lock/ack message) into ONE payload. The paper's
// model lets each process send one message per recipient per round, and
// the restricted-Byzantine bound is exactly that same budget — so a
// correct process must not need more sends per round than a restricted
// Byzantine process is allowed, or Lemma 17's twin emulation (and the
// model's symmetry) breaks. Receivers unpack the envelope before any
// other processing; copy counts of the envelope carry over to its parts.
type Envelope struct {
	Parts []msg.Payload
}

// BuildKey implements msg.ScratchKeyer.
func (e Envelope) BuildKey(kb *msg.KeyBuilder) {
	kb.Reset("nenv")
	for _, p := range e.Parts {
		kb.Nested(p)
	}
}

// Key implements msg.Payload.
func (e Envelope) Key() string { return msg.ScratchKey(e) }

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

// witnessRow holds the per-identifier multiplicities accepted for one
// broadcast body (indexed by the body key's dense KeyID). In-range
// identifiers (1..ℓ) live in a flat array; anything a Byzantine bundle
// smuggled in beyond ℓ goes to the rarely-allocated overflow map, so the
// per-round paths never hash strings.
type witnessRow struct {
	byID     []int32
	overflow map[hom.Identifier]int
}

// Process is the Figure-7 state machine for one process. It implements
// engine.Process.
type Process struct {
	params hom.Params
	id     hom.Identifier
	bc     *numbcast.Broadcaster

	proper   hom.ValueSet
	locks    map[hom.Value]int
	decision hom.Value

	// keys symbolizes broadcast body keys for this process; witnesses is
	// indexed by the body key's KeyID, and witnesses[kid] holds, per
	// identifier, the largest multiplicity accepted for the broadcast of
	// that body under that identifier. The witness total is the sum over
	// identifiers.
	keys      *msg.Interner
	kb        msg.KeyBuilder
	witnesses []witnessRow
	// maxAcceptPhase is the largest phase tag seen on any accepted
	// propose/vote payload; it bounds the lock-release scan.
	maxAcceptPhase int

	// Per-phase transient state.
	lockSeen map[hom.Value]bool

	// The standing envelope, re-sent with its stamp memo until a direct part,
	// a new bundle or a grown proper set changes it; never mutated once sent.
	env        msg.Send
	envMemo    msg.StampMemo
	envBundle  msg.Payload // the bundle env carries, or nil
	envDirect  bool        // env carries a lock or ack
	properPart msg.Payload // ProperPayload of the proper set's properSent values
	properSent int
	sends      []msg.Send // Prepare's result buffer, valid for its round

	// Receive's round scratch (scan), owned by the process for its life.
	bundles     []numbcast.Delivery
	supported   map[hom.Value]int // value -> copies of proper sets holding it
	acks        map[hom.Value]int // value -> copies of this phase's acks
	properTotal int               // copies of proper sets
	runKeys     []string          // keys of the parts the current identifier delivered
	valBuf      []hom.Value
}

var _ engine.Process = (*Process)(nil)

// Init implements engine.Process.
func (pr *Process) Init(ctx engine.Context) {
	pr.params = ctx.Params
	pr.id = ctx.ID
	bc, err := numbcast.New(ctx.Params.N, ctx.Params.L, ctx.Params.T)
	if err != nil {
		// Unreachable after New's validation; fail loudly in tests.
		panic("psyncnum: " + err.Error())
	}
	pr.bc = bc
	pr.proper = hom.NewValueSet(ctx.Input)
	pr.locks = make(map[hom.Value]int)
	pr.decision = hom.NoValue
	pr.keys = msg.NewPooledInterner()
	pr.witnesses = nil
	pr.lockSeen = make(map[hom.Value]bool)
	pr.supported = make(map[hom.Value]int)
	pr.acks = make(map[hom.Value]int)
}

// Release implements engine.Releaser: the engines call it after the
// execution, recycling the broadcast table and the intern scratch.
func (pr *Process) Release() {
	if pr.bc != nil {
		pr.bc.Release()
	}
	if pr.keys != nil {
		pr.keys.Recycle()
		pr.keys = nil
	}
}

// proposeSR and voteSR return the global superround tags the phase's
// broadcasts are bound to (SR1 and SR3 of the phase).
func proposeSR(phase int) int { return hom.SuperroundsPerPhase*phase + 1 }
func voteSR(phase int) int    { return hom.SuperroundsPerPhase*phase + 3 }

func (pr *Process) isLeader(phase int) bool {
	return pr.id == hom.LeaderID(phase, pr.params.L)
}

// proposeKID and voteKID symbolize the body keys of the phase broadcasts
// without materialising the payloads or their key strings: the bytes are
// rebuilt in scratch (identical to ProposePayload.Key/VotePayload.Key)
// and interned, so a known key costs one hash lookup and no allocation.
func (pr *Process) proposeKID(phase int, v hom.Value) msg.KeyID {
	return pr.kb.Reset("npropose").Int(phase).Value(v).Intern(pr.keys)
}

func (pr *Process) voteKID(phase int, v hom.Value) msg.KeyID {
	return pr.kb.Reset("nvote").Int(phase).Value(v).Intern(pr.keys)
}

// addWitness records an accepted multiplicity for (body kid, identifier),
// keeping the per-identifier maximum.
func (pr *Process) addWitness(kid msg.KeyID, id hom.Identifier, alpha int) {
	for int(kid) >= len(pr.witnesses) {
		pr.witnesses = append(pr.witnesses, witnessRow{})
	}
	row := &pr.witnesses[kid]
	if id.IsValid(pr.params.L) {
		if row.byID == nil {
			row.byID = make([]int32, pr.params.L+1)
		}
		if alpha > int(row.byID[id]) {
			row.byID[id] = int32(alpha)
		}
		return
	}
	if row.overflow == nil {
		row.overflow = make(map[hom.Identifier]int)
	}
	if alpha > row.overflow[id] {
		row.overflow[id] = alpha
	}
}

// witnessCount sums the per-identifier multiplicities accepted for the
// body with the given KeyID.
func (pr *Process) witnessCount(kid msg.KeyID) int {
	if int(kid) >= len(pr.witnesses) {
		return 0
	}
	row := &pr.witnesses[kid]
	total := 0
	for _, a := range row.byID {
		total += int(a)
	}
	for _, a := range row.overflow {
		total += a
	}
	return total
}

// Prepare implements engine.Process. The whole round's traffic travels in a
// single Envelope so that a correct process uses exactly the one-message-
// per-recipient budget of the model (see Envelope).
func (pr *Process) Prepare(round int) []msg.Send {
	phase, pos := hom.PhasePos(round)
	if pos == 1 {
		clear(pr.lockSeen)
	}
	var direct msg.Payload // the round's lock or ack, if any
	need := pr.params.N - pr.params.T
	switch pos {
	case 1: // SR1: one broadcast per proposable value.
		for _, v := range pr.proposableValues().Values() {
			pr.bc.Broadcast(ProposePayload{Phase: phase, Val: v})
		}
	case 3: // SR2: leaders request a lock on a witnessed value.
		if pr.isLeader(phase) {
			if v, ok := pr.pickWitnessed(phase, need); ok {
				direct = LockPayload{Phase: phase, Val: v}
			}
		}
	case 5: // SR3: vote for a witnessed value the leader requested.
		if v, ok := pr.pickVoteValue(phase, need); ok {
			pr.bc.Broadcast(VotePayload{Phase: phase, Val: v})
		}
	case 7: // SR4: lock and acknowledge a value with witnessed votes.
		if v, ok := pr.pickAckValue(phase, need); ok {
			pr.locks[v] = phase
			direct = AckPayload{Phase: phase, Val: v}
		}
	}
	bundle := pr.bc.Outgoing(round)
	if n := pr.proper.Len(); pr.properPart == nil || n != pr.properSent {
		pr.properPart, pr.properSent = ProperPayload{V: pr.proper.Clone()}, n
		pr.env.Body = nil
	}
	if pr.env.Body == nil || direct != nil || pr.envDirect || bundle != pr.envBundle {
		parts := make([]msg.Payload, 0, 3)
		if direct != nil {
			parts = append(parts, direct)
		}
		if bundle != nil {
			parts = append(parts, bundle)
		}
		pr.envMemo = msg.StampMemo{}
		pr.env = msg.Send{Kind: msg.ToAll, Body: Envelope{Parts: append(parts, pr.properPart)}, Memo: &pr.envMemo}
		pr.envBundle, pr.envDirect = bundle, direct != nil
	}
	pr.sends = append(pr.sends[:0], pr.env)
	return pr.sends
}

// proposableValues returns the proper values not excluded by a lock on a
// different value (Figure 7, line 6).
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

// pickWitnessed returns the smallest value with at least `need` witnesses
// for (propose v, phase).
func (pr *Process) pickWitnessed(phase, need int) (hom.Value, bool) {
	var candidates []hom.Value
	for _, v := range pr.knownValues() {
		if pr.witnessCount(pr.proposeKID(phase, v)) >= need {
			candidates = append(candidates, v)
		}
	}
	return smallest(candidates)
}

// pickVoteValue returns the smallest value with both a leader lock request
// seen this phase and `need` propose witnesses (Figure 7, lines 12–14).
func (pr *Process) pickVoteValue(phase, need int) (hom.Value, bool) {
	var candidates []hom.Value
	for v := range pr.lockSeen {
		if pr.witnessCount(pr.proposeKID(phase, v)) >= need {
			candidates = append(candidates, v)
		}
	}
	return smallest(candidates)
}

// pickAckValue returns the smallest value with `need` witnesses for
// (vote v, phase) (Figure 7, lines 16–19).
func (pr *Process) pickAckValue(phase, need int) (hom.Value, bool) {
	var candidates []hom.Value
	for _, v := range pr.knownValues() {
		if pr.witnessCount(pr.voteKID(phase, v)) >= need {
			candidates = append(candidates, v)
		}
	}
	return smallest(candidates)
}

// knownValues returns the domain extended with any proper values (the
// domain normally covers everything; proper values outside the domain can
// only appear if inputs were outside it).
func (pr *Process) knownValues() []hom.Value {
	set := hom.NewValueSet(pr.params.EffectiveDomain()...)
	set.AddAll(pr.proper.Values())
	return set.Values()
}

func smallest(candidates []hom.Value) (hom.Value, bool) {
	if len(candidates) == 0 {
		return hom.NoValue, false
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	return candidates[0], true
}

// Receive implements engine.Process.
func (pr *Process) Receive(round int, in *msg.Inbox) { pr.receive(round, in) }

// receive is Receive, returning the round's broadcast-layer accepts
// (valid until the next round).
func (pr *Process) receive(round int, in *msg.Inbox) []numbcast.Accept {
	phase, pos := hom.PhasePos(round)
	need := pr.params.N - pr.params.T
	pr.scan(in, phase, pos)

	// Multiplicity-broadcast layer: fold accepts into witness tables,
	// checking that the superround tag matches the payload's phase slot
	// (a Byzantine init at the wrong superround is discarded here).
	accepts := pr.bc.Ingest(round, pr.bundles)
	for _, acc := range accepts {
		var kid msg.KeyID
		switch body := acc.Body.(type) {
		case ProposePayload:
			if acc.SR != proposeSR(body.Phase) {
				continue
			}
			if body.Phase > pr.maxAcceptPhase {
				pr.maxAcceptPhase = body.Phase
			}
			kid = pr.proposeKID(body.Phase, body.Val)
		case VotePayload:
			if acc.SR != voteSR(body.Phase) {
				continue
			}
			if body.Phase > pr.maxAcceptPhase {
				pr.maxAcceptPhase = body.Phase
			}
			kid = pr.voteKID(body.Phase, body.Val)
		default:
			continue
		}
		pr.addWitness(kid, acc.ID, acc.Alpha)
	}

	pr.updateProper()

	switch pos {
	case 7: // Decide on n−t ack copies plus n−t propose witnesses
		// (Figure 7, lines 20–23) — any process, not only leaders.
		if pr.decision == hom.NoValue {
			best, ok := hom.NoValue, false
			for v, copies := range pr.acks {
				if (!ok || v < best) && copies >= need && pr.witnessCount(pr.proposeKID(phase, v)) >= need {
					best, ok = v, true
				}
			}
			pr.decision = best
		}
	case 8: // End of phase: release superseded locks (lines 24–26).
		pr.releaseLocks(need)
	}
	return accepts
}

// scan is Receive's one pass over the round's inbox, reading envelopes in
// place: a part counts its envelope's copies, and a payload outside an
// envelope is a part of its own. It gathers the bundles, proper sets, this
// phase's acks and the leader's lock requests. An innumerate receiver
// counts one copy per distinct (identifier, part); the inbox is sorted by
// identifier, so a part is compared only with its identifier's others.
func (pr *Process) scan(in *msg.Inbox, phase, pos int) {
	numerate := in.Numerate()
	leader := hom.LeaderID(phase, pr.params.L)
	tallyAcks := pos == 7 && pr.decision == hom.NoValue
	pr.bundles = pr.bundles[:0]
	clear(pr.supported)
	clear(pr.acks)
	pr.properTotal = 0
	for i, k := 0, in.Len(); i < k; i++ {
		id, copies, body := in.SenderAt(i), in.CountAt(i), in.BodyAt(i)
		if i == 0 || id != in.SenderAt(i-1) {
			pr.runKeys = pr.runKeys[:0]
		}
		parts := []msg.Payload{body}
		if env, ok := body.(Envelope); ok {
			parts = env.Parts
		}
		for _, part := range parts {
			if part == nil {
				continue
			}
			if !numerate {
				key := part.Key()
				if slices.Contains(pr.runKeys, key) {
					continue
				}
				pr.runKeys = append(pr.runKeys, key)
			}
			switch p := part.(type) {
			case *numbcast.Bundle:
				pr.bundles = append(pr.bundles, numbcast.Delivery{ID: id, Bundle: p, Copies: copies})
			case ProperPayload:
				pr.properTotal += copies
				pr.valBuf = p.V.AppendValues(pr.valBuf[:0])
				for _, v := range pr.valBuf {
					pr.supported[v] += copies
				}
			case LockPayload:
				if pos == 3 && id == leader && p.Phase == phase && p.Val != hom.NoValue {
					pr.lockSeen[p.Val] = true
				}
			case AckPayload:
				if tallyAcks && p.Phase == phase && p.Val != hom.NoValue {
					pr.acks[p.Val] += copies
				}
			}
		}
	}
}

// updateProper applies the numerate proper-set rules (Appendix A.3.2) to
// the round's tallies (scan): a value contained in proper sets carried by
// t+1 message copies in one round becomes proper; receiving 2t+1
// proper-set copies with no value in t+1 of them makes every domain value
// proper.
func (pr *Process) updateProper() {
	anySupported := false
	for v, copies := range pr.supported {
		if copies >= pr.params.T+1 {
			pr.proper.Add(v)
			anySupported = true
		}
	}
	if !anySupported && pr.properTotal >= 2*pr.params.T+1 {
		pr.proper.AddAll(pr.params.EffectiveDomain())
	}
}

// releaseLocks removes a lock (v1, ph1) once another value has `need`
// vote witnesses in a later phase (Figure 7, lines 24–26).
func (pr *Process) releaseLocks(need int) {
	values := pr.knownValues()
	for v1, ph1 := range pr.locks {
	scan:
		for ph2 := ph1 + 1; ph2 <= pr.maxAcceptPhase; ph2++ {
			for _, v2 := range values {
				if v2 == v1 {
					continue
				}
				if pr.witnessCount(pr.voteKID(ph2, v2)) >= need {
					delete(pr.locks, v1)
					break scan
				}
			}
		}
	}
}

// Decision implements engine.Process.
func (pr *Process) Decision() (hom.Value, bool) {
	return pr.decision, pr.decision != hom.NoValue
}

// StateFingerprint implements engine.StateHasher: the decision, the
// largest accepted phase, the proper set, locks, this phase's lock
// requests and the nonzero witness counts by canonical body key (fmt
// prints maps in key order), then the broadcast layer's Fingerprint.
// Body KeyIDs are process-local — probing a threshold interns a key —
// and never hashed; the envelope fields and the round scratch are caches
// of this state or rebuilt each round.
func (pr *Process) StateFingerprint() msg.StateHash {
	rows := map[string]string{}
	for kid, row := range pr.witnesses {
		var b strings.Builder
		for id, a := range row.byID {
			if a > 0 {
				fmt.Fprintf(&b, "%d:%d ", id, a)
			}
		}
		if b.Len() > 0 || len(row.overflow) > 0 {
			rows[pr.keys.Key(msg.KeyID(kid))] = fmt.Sprint(b.String(), row.overflow)
		}
	}
	state := fmt.Sprint(pr.decision, pr.maxAcceptPhase, pr.proper.Values(), pr.locks, pr.lockSeen, rows)
	return pr.bc.Fingerprint(msg.NewStateHash().String(state))
}
