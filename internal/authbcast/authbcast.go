// Package authbcast implements the paper's authenticated broadcast
// primitive for homonymous systems (Proposition 6), a generalisation of
// Srikanth–Toueg authenticated broadcast to ℓ identifiers. It requires
// ℓ > 3t and provides, in the basic partially synchronous model:
//
//   - Correctness: if a process with identifier i performs Broadcast(m) in
//     superround r ≥ T (the stabilisation superround), every correct
//     process performs Accept(m, i) during superround r.
//   - Unforgeability: if all processes with identifier i are correct and
//     none performs Broadcast(m), no correct process performs
//     Accept(m, i).
//   - Relay: if some correct process performs Accept(m, i) during
//     superround r, every correct process performs Accept(m, i) by
//     superround max(r+1, T).
//
// Wire protocol (superround r = rounds 2r−1 and 2r, 1-based): the
// broadcaster sends ⟨init m⟩ in round 2r−1. A process that receives
// ⟨init m⟩ from identifier i sends ⟨echo m, r, i⟩ in every subsequent
// round. A process that has received ⟨echo m, r, i⟩ from ℓ−2t distinct
// identifiers sends the echo in every subsequent round too. A process that
// has received the echo from ℓ−t distinct identifiers performs
// Accept(m, i). All counting is over distinct identifiers, so the
// primitive works for innumerate processes.
//
// The Broadcaster type is a passive component: a host process (package
// psynchom) owns the round loop and calls Outgoing/Ingest each round.
// Its per-round bookkeeping is string-free: every (m, r, i) tuple key is
// symbolized once in a broadcaster-local intern table whose dense KeyIDs
// index a flat tuple arena, and distinct-identifier support lives in a
// shared bitmap arena. Reception does not even rebuild that key: the
// engine interned every delivered message at stamp time, and the
// broadcaster memoises, per engine KeyID, which support bit a validated
// echo sets — so the ~ℓ re-deliveries of every standing echo in every
// round cost one table load and one bit test each, and only a KeyID not
// yet classified reaches a payload. Sending is symmetric: a standing echo
// goes out with its tuple's stamp memo, so the engine builds its key once
// per execution. Release returns the whole table to a pool for the next.
package authbcast

import (
	"errors"
	"slices"
	"sync"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// ErrResilience is returned when ℓ ≤ 3t.
var ErrResilience = errors.New("authbcast: authenticated broadcast requires l > 3t")

// InitPayload is the ⟨init m⟩ message starting a broadcast.
type InitPayload struct {
	Body msg.Payload
}

// BuildKey implements msg.ScratchKeyer (the engines' scratch-interned
// send path; the embedded body key stays whatever the inner payload
// provides).
func (p InitPayload) BuildKey(kb *msg.KeyBuilder) { kb.Reset("abinit").Nested(p.Body) }

// Key implements msg.Payload.
func (p InitPayload) Key() string { return msg.ScratchKey(p) }

// EchoPayload is the ⟨echo m, r, i⟩ message supporting the broadcast of m
// performed under identifier ID in superround SR.
type EchoPayload struct {
	Body msg.Payload
	SR   int
	ID   hom.Identifier
}

// BuildKey implements msg.ScratchKeyer.
func (p EchoPayload) BuildKey(kb *msg.KeyBuilder) {
	kb.Reset("abecho").Int(p.SR).Identifier(p.ID).Nested(p.Body)
}

// Key implements msg.Payload.
func (p EchoPayload) Key() string { return msg.ScratchKey(p) }

// Accept records one Accept(m, i) action: the payload m, the broadcaster
// identifier i, and the superround the broadcast was started in.
type Accept struct {
	ID   hom.Identifier
	Body msg.Payload
	SR   int
}

// tupleState tracks one (m, r, i) echo tuple. States live by value in the
// broadcaster's arena, indexed by the tuple key's dense KeyID; the
// distinct-identifier support bitmap lives in the shared echoers arena at
// echoOff (ℓ+1 slots, indexed by identifier).
type tupleState struct {
	body msg.Payload
	sr   int
	id   hom.Identifier
	// echo is the tuple's ⟨echo m, r, i⟩, boxed once at creation because
	// Outgoing re-sends it in every later round, with stamp, its memo.
	echo     msg.Payload
	stamp    msg.StampMemo
	echoOff  int32
	echoes   int // distinct identifiers seen echoing
	echoing  bool
	accepted bool
}

// table is the recyclable storage of a Broadcaster: the intern table, the
// tuple arena and the echo bitmap arena grow over one execution and go
// back to the pool together.
type table struct {
	keys    *msg.Interner
	tuples  []tupleState
	echoers []bool
	kb      msg.KeyBuilder
	// memo maps an inbox KeyID (msg.Inbox.KeyIDAt — the engine's, not
	// keys') to one plus the echoers slot a validated echo with that
	// KeyID sets; 0 means not seen valid yet. A message KeyID names one
	// (sender identifier, echo payload) pair for the whole execution and
	// an echo's validity only ever turns on (its superround stops being
	// in the future), so an entry, once written, stays right. The slot
	// also names the tuple: tuple i owns slots i·(ℓ+1) .. i·(ℓ+1)+ℓ.
	// Entries beyond len are zero (reset clears what was used), so
	// growing within capacity is free.
	memo []int32
	out  []msg.Send // Outgoing's result buffer
	rest []int32    // Ingest's inbox positions not classified by KeyID; then Unclaimed
}

// reset empties the table for a new broadcaster, keeping capacity.
func (t *table) reset() {
	t.keys.Reset()
	clear(t.tuples) // drop payload references from the previous run
	t.tuples = t.tuples[:0]
	t.echoers = t.echoers[:0]
	clear(t.memo)
	t.memo = t.memo[:0]
	clear(t.out[:cap(t.out)]) // a later round may have sent fewer than an earlier one
	t.out = t.out[:0]
	t.rest = t.rest[:0]
}

// echoSlot returns the echoers slot memoised for the inbox KeyID kid, or
// -1 when there is none (always so for NoKey, which is never memoised).
func (t *table) echoSlot(kid msg.KeyID) int {
	if int(kid) < len(t.memo) {
		return int(t.memo[kid]) - 1
	}
	return -1
}

// memoise records that the inbox KeyID kid is a validated echo setting
// echoers[slot].
func (t *table) memoise(kid msg.KeyID, slot int) {
	if n := int(kid) + 1; n > len(t.memo) {
		t.memo = slices.Grow(t.memo, n-len(t.memo))[:n]
	}
	t.memo[kid] = int32(slot) + 1
}

var tablePool = sync.Pool{New: func() any { return &table{keys: msg.NewInterner()} }}

// Broadcaster is the per-process broadcast component. The zero value is
// not usable; construct with New.
type Broadcaster struct {
	l, t    int
	pending []msg.Payload // Broadcast bodies queued for the next odd round
	tab     *table
}

// New returns a broadcaster for a system with l identifiers and at most t
// Byzantine processes.
func New(l, t int) (*Broadcaster, error) {
	if l <= 3*t {
		return nil, ErrResilience
	}
	return newBroadcaster(l, t), nil
}

// newBroadcaster builds a broadcaster without the resilience check (the
// fuzz host probes below the bound on purpose).
func newBroadcaster(l, t int) *Broadcaster {
	tab := tablePool.Get().(*table)
	tab.reset()
	return &Broadcaster{l: l, t: t, tab: tab}
}

// Release returns the broadcaster's arena-backed table to the shared pool.
// The broadcaster is unusable afterwards. Hosts forward engine.Releaser to
// this method so steady-state experiment grids reuse the tables.
func (b *Broadcaster) Release() {
	if b.tab == nil {
		return
	}
	tablePool.Put(b.tab)
	b.tab = nil
}

// Superround maps a 1-based round to its 1-based superround.
func Superround(round int) int { return (round + 1) / 2 }

// IsInitRound reports whether the round is the first round of its
// superround (where ⟨init⟩ messages are sent and received).
func IsInitRound(round int) bool { return round%2 == 1 }

// Broadcast queues m to be initiated at the next init round. The paper's
// Broadcast(m) is bound to a specific superround; hosts call this method
// during their Prepare of an init round (or just before), and the init
// goes out with that round's sends.
func (b *Broadcaster) Broadcast(m msg.Payload) {
	b.pending = append(b.pending, m)
}

// Outgoing returns the broadcast-layer sends of the given round: pending
// ⟨init⟩ messages if this is an init round, plus every echo obligation
// accumulated so far ("in all subsequent rounds"), each with its tuple's
// stamp memo. Tuples are scanned in arena order, which is first-sight
// order and therefore deterministic. The result (and the memos it points
// to) is the broadcaster's own, valid for the round: hosts copy the sends.
func (b *Broadcaster) Outgoing(round int) []msg.Send {
	out := b.tab.out[:0]
	if IsInitRound(round) {
		for _, m := range b.pending {
			out = append(out, msg.Broadcast(InitPayload{Body: m}))
		}
		b.pending = nil
	}
	for i := range b.tab.tuples {
		ts := &b.tab.tuples[i]
		if ts.echoing && round > 2*ts.sr-1 {
			out = append(out, msg.Send{Kind: msg.ToAll, Body: ts.echo, Memo: &ts.stamp})
		}
	}
	b.tab.out = out
	return out
}

// Ingest processes the round's inbox and returns the Accept actions newly
// performed this round, in deterministic (first-sight) order. It iterates
// the inbox through the indexed accessors, so the engine's SoA inbox
// never materialises a []Message view for the broadcast layer.
//
// Almost every message of a round is an echo this broadcaster validated
// in an earlier round; the one pass over the inbox recognises those by
// their inbox KeyID alone (table.memo). Only the rest — a first sight, a
// message of an uninterned inbox, an early echo, anything that is no echo
// — reaches the payload and the tuple key, in walks over just those
// positions: that path is the definition, the memo only remembers its
// answer, and tuples are created on it alone, ⟨init⟩s first.
func (b *Broadcaster) Ingest(round int, in *msg.Inbox) []Accept {
	sr := Superround(round)
	tab := b.tab
	fresh := tab.rest[:0]
	for i, k := 0, in.Len(); i < k; i++ {
		if slot := tab.echoSlot(in.KeyIDAt(i)); slot >= 0 {
			b.support(slot)
		} else {
			fresh = append(fresh, int32(i))
		}
	}
	// ⟨init⟩ messages are only meaningful in the first round of a
	// superround; an init from identifier i starts the (m, sr, i) tuple.
	// They go first: a tuple's arena position is its first sight.
	if IsInitRound(round) {
		for _, i := range fresh {
			ip, ok := in.BodyAt(int(i)).(InitPayload)
			if !ok || ip.Body == nil {
				continue
			}
			tab.tuples[b.tuple(ip.Body, sr, in.SenderAt(int(i)))].echoing = true
		}
	}
	// ⟨echo⟩ messages accumulate per-tuple distinct-identifier support in
	// the bitmap arena; what is none stays, compacted in place.
	rest := fresh[:0]
	for _, i := range fresh {
		ep, ok := in.BodyAt(int(i)).(EchoPayload)
		sender := in.SenderAt(int(i))
		if !ok || ep.Body == nil || ep.SR < 1 || ep.SR > sr || !ep.ID.IsValid(b.l) || !sender.IsValid(b.l) {
			rest = append(rest, i)
			continue
		}
		slot := int(tab.tuples[b.tuple(ep.Body, ep.SR, ep.ID)].echoOff) + int(sender)
		if kid := in.KeyIDAt(int(i)); kid != msg.NoKey {
			tab.memoise(kid, slot)
		}
		b.support(slot)
	}
	tab.rest = rest
	// Threshold checks (cumulative over all rounds), in arena order.
	var accepts []Accept
	for i := range tab.tuples {
		ts := &tab.tuples[i]
		if ts.echoes >= b.l-2*b.t {
			ts.echoing = true
		}
		if !ts.accepted && ts.echoes >= b.l-b.t {
			ts.accepted = true
			accepts = append(accepts, Accept{ID: ts.id, Body: ts.body, SR: ts.sr})
		}
	}
	return accepts
}

// support records the echo of one (tuple, sender identifier) echoers slot.
func (b *Broadcaster) support(slot int) {
	if seen := &b.tab.echoers[slot]; !*seen {
		*seen = true
		b.tab.tuples[slot/(b.l+1)].echoes++
	}
}

// Unclaimed returns the ascending positions of the last Ingest's inbox
// whose message is no echo the broadcaster counted (the host's traffic,
// ⟨init⟩s, the malformed, the early). Valid until the next Ingest.
func (b *Broadcaster) Unclaimed() []int32 { return b.tab.rest }

// tuple returns the arena index of the (m, sr, i) tuple, creating it on
// first sight. The tuple key is built in the broadcaster's scratch buffer
// and interned, so a known tuple costs one hash lookup and no allocation;
// because this interner sees only tuple keys, the dense KeyID minus one
// is exactly the arena index.
func (b *Broadcaster) tuple(body msg.Payload, sr int, id hom.Identifier) int {
	kid := b.tab.kb.Reset("abecho").Int(sr).Identifier(id).Nested(body).Intern(b.tab.keys)
	idx := int(kid) - 1
	if idx < len(b.tab.tuples) {
		return idx
	}
	off := int32(len(b.tab.echoers))
	for i := 0; i <= b.l; i++ {
		b.tab.echoers = append(b.tab.echoers, false)
	}
	b.tab.tuples = append(b.tab.tuples, tupleState{
		body: body, sr: sr, id: id, echoOff: off,
		echo: EchoPayload{Body: body, SR: sr, ID: id},
	})
	return idx
}

// TupleCount reports the number of tracked tuples (for tests and memory
// accounting).
func (b *Broadcaster) TupleCount() int { return len(b.tab.tuples) }

// Clone returns an independent deep copy of the broadcaster, backed by a
// fresh pooled table. The original's tuples are replayed in arena
// (first-sight) order, which reproduces the KeyID assignment and echo
// bitmap layout exactly, so clone and original behave identically from
// here on. The KeyID memo is not copied: the clone refills it through the
// key path as its own inboxes arrive, exactly as a fresh broadcaster does.
func (b *Broadcaster) Clone() *Broadcaster {
	nb := newBroadcaster(b.l, b.t)
	nb.pending = append(nb.pending, b.pending...)
	for i := range b.tab.tuples {
		ts := &b.tab.tuples[i]
		nt := &nb.tab.tuples[nb.tuple(ts.body, ts.sr, ts.id)]
		nt.echoes = ts.echoes
		nt.echoing = ts.echoing
		nt.accepted = ts.accepted
		copy(nb.tab.echoers[nt.echoOff:int(nt.echoOff)+b.l+1],
			b.tab.echoers[ts.echoOff:int(ts.echoOff)+b.l+1])
	}
	return nb
}

// Fingerprint folds the broadcaster's observable state into h: the
// pending queue, then every tuple's canonical key, counters and echoer
// bitmap in arena (first-sight) order. Canonical payload keys only —
// tuple KeyIDs are broadcaster-local and never hashed (two broadcasters
// that saw the same tuples in a different order fingerprint differently,
// which only delays a class merge, never corrupts one).
func (b *Broadcaster) Fingerprint(h msg.StateHash) msg.StateHash {
	h = h.Int(len(b.pending))
	for _, m := range b.pending {
		h = h.String(m.Key())
	}
	h = h.Int(len(b.tab.tuples))
	for i := range b.tab.tuples {
		ts := &b.tab.tuples[i]
		h = h.String(ts.body.Key()).Int(ts.sr).Int(int(ts.id)).
			Int(ts.echoes).Bool(ts.echoing).Bool(ts.accepted)
		for j := 0; j <= b.l; j++ {
			h = h.Bool(b.tab.echoers[int(ts.echoOff)+j])
		}
	}
	return h
}
