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
// shared bitmap arena. Sending pays for an echo once: the broadcaster
// boxes the ⟨echo m, r, i⟩ its ⟨init m⟩ starts and sends it inside the
// init, so every receiver that takes the init as sent — in its own
// superround, from the identifier that stamped it — re-sends that one
// box instead of boxing its own; a tuple first seen as an echo keeps the
// delivered box. A standing echo goes out Standing with its tuple's stamp
// memo, so the engine builds its key once per execution and, in a round
// right after a weighted round that carried it, accounts the repeat
// without delivering it again — repeats change nothing here, since
// support counts distinct sender identifiers. Hosts hand Ingest the
// inbox's Delta: what the round stamped. There reception does not rebuild
// keys either: the broadcaster memoises, per engine PayloadID, which
// tuple a validated echo supports, so an echo of a known tuple, from any
// identifier, costs one table load and one bit test, and a first sight
// interns its tuple under the payload part of the delivered message key.
// Release returns the whole table to a pool for the next.
package authbcast

import (
	"errors"
	"slices"
	"strings"
	"sync"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// ErrResilience is returned when ℓ ≤ 3t.
var ErrResilience = errors.New("authbcast: authenticated broadcast requires l > 3t")

// InitPayload is the ⟨init m⟩ message starting a broadcast. An init
// made by Outgoing also carries the ⟨echo m, r, i⟩ it starts, boxed once
// for all its receivers; the echo is no part of the key, and a receiver
// uses it only when its superround and identifier are the ones the init
// arrives with. Build a copy with another Body afresh: a copy keeps the
// echo of the Body it was made with.
type InitPayload struct {
	Body msg.Payload
	echo msg.Payload
}

// carried returns the init's boxed echo when it is the ⟨echo Body, sr,
// id⟩ an init from identifier id in superround sr starts, and nil
// otherwise.
func (p InitPayload) carried(sr int, id hom.Identifier) msg.Payload {
	if ep, ok := p.echo.(EchoPayload); ok && ep.SR == sr && ep.ID == id {
		return p.echo
	}
	return nil
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
	// echo is the tuple's ⟨echo m, r, i⟩, which Outgoing re-sends in
	// every later round with stamp, its memo. It is the box the
	// broadcaster sent inside its init, or the first delivered echo, when
	// the tuple was first seen through one of those; else boxed here.
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
	// memo maps an inbox PayloadID (msg.Inbox.PayloadIDAt — the engine's,
	// not keys') to one plus the index of the tuple a validated echo with
	// that payload supports; 0 means not seen valid yet. A PayloadID names
	// one echo payload for the whole execution, whoever sends it, and an
	// echo's validity only ever turns on (its superround stops being in
	// the future), so an entry, once written, stays right; what is left
	// to check per delivery is the sender identifier. Entries beyond len
	// are zero (reset clears what was used), so growing within capacity
	// is free.
	memo    []int32
	out     []msg.Send // Outgoing's result buffer
	rest    []int32    // Ingest's inbox positions not classified by PayloadID; then Unclaimed
	accepts []Accept   // Ingest's result buffer
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
	clear(t.accepts[:cap(t.accepts)])
	t.accepts = t.accepts[:0]
}

// echoSlot returns the echoers slot an echo with the inbox PayloadID pid
// sets when sender sends it, or -1 when the memo does not answer: pid was
// not seen valid (always so for NoPayload, which is never memoised) or
// sender is no identifier.
func (b *Broadcaster) echoSlot(pid msg.PayloadID, sender hom.Identifier) int {
	if int(pid) >= len(b.tab.memo) || b.tab.memo[pid] == 0 || !sender.IsValid(b.l) {
		return -1
	}
	return int(b.tab.tuples[b.tab.memo[pid]-1].echoOff) + int(sender)
}

// memoise records that the inbox PayloadID pid is a validated echo of
// tuple idx.
func (t *table) memoise(pid msg.PayloadID, idx int) {
	if n := int(pid) + 1; n > len(t.memo) {
		t.memo = slices.Grow(t.memo, n-len(t.memo))[:n]
	}
	t.memo[pid] = int32(idx) + 1
}

var tablePool = sync.Pool{New: func() any { return &table{keys: msg.NewInterner()} }}

// Broadcaster is the per-process broadcast component. The zero value is
// not usable; construct with New.
type Broadcaster struct {
	l, t    int
	id      hom.Identifier // the host's identifier, stamped on the echo an init carries
	pending []msg.Payload  // Broadcast bodies queued for the next odd round
	tab     *table
}

// New returns a broadcaster for a host with identifier id in a system
// with l identifiers and at most t Byzantine processes.
func New(l, t int, id hom.Identifier) (*Broadcaster, error) {
	if l <= 3*t {
		return nil, ErrResilience
	}
	return newBroadcaster(l, t, id), nil
}

// newBroadcaster builds a broadcaster without the resilience check (the
// fuzz host probes below the bound on purpose).
func newBroadcaster(l, t int, id hom.Identifier) *Broadcaster {
	tab := tablePool.Get().(*table)
	tab.reset()
	return &Broadcaster{l: l, t: t, id: id, tab: tab}
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

// Broadcast queues m to be initiated at the next init round. The paper's
// Broadcast(m) is bound to a specific superround; hosts call this method
// during their Prepare of an init round (or just before), and the init
// goes out with that round's sends.
func (b *Broadcaster) Broadcast(m msg.Payload) {
	b.pending = append(b.pending, m)
}

// Outgoing returns the broadcast-layer sends of the given round: pending
// ⟨init⟩ messages, each carrying the echo it starts, if this is an init
// round, plus every echo obligation accumulated so far ("in all
// subsequent rounds"), each with its tuple's stamp memo. Tuples are scanned in arena order, which is first-sight
// order and therefore deterministic. The result (and the memos it points
// to) is the broadcaster's own, valid for the round: hosts copy the sends.
func (b *Broadcaster) Outgoing(round int) []msg.Send {
	out := b.tab.out[:0]
	if hom.IsInitRound(round) {
		sr := hom.Superround(round)
		for _, m := range b.pending {
			out = append(out, msg.Broadcast(InitPayload{Body: m, echo: EchoPayload{Body: m, SR: sr, ID: b.id}}))
		}
		clear(b.pending)
		b.pending = b.pending[:0]
	}
	for i := range b.tab.tuples {
		ts := &b.tab.tuples[i]
		if ts.echoing && round > 2*ts.sr-1 {
			out = append(out, msg.Send{Kind: msg.ToAll, Body: ts.echo, Memo: &ts.stamp, Standing: true})
		}
	}
	b.tab.out = out
	return out
}

// Ingest processes the round's inbox and returns the Accept actions newly
// performed this round, in deterministic (first-sight) order. The result
// is the broadcaster's own, valid until the next Ingest: hosts copy what
// they keep. Hosts pass the inbox's Delta: a standing echo the engine
// spared was counted when first delivered. It iterates through the
// indexed accessors, so the engine's SoA inbox never materialises a
// []Message view for it.
//
// Almost every message of a round echoes a tuple this broadcaster
// validated before; the one pass over the inbox recognises those by their
// inbox PayloadID and sender alone (table.memo). Only the rest — a first
// sight, a message of an uninterned inbox, an early echo, anything that is
// no echo — reaches the payload, in walks over just those positions, and
// the first valid echo of a tuple there reaches the tuple key for every
// identifier echoing it: that path is the definition, the memo only
// remembers its answer, and tuples are created on it alone, ⟨init⟩s first.
func (b *Broadcaster) Ingest(round int, in *msg.Inbox) []Accept {
	sr := hom.Superround(round)
	tab := b.tab
	fresh := tab.rest[:0]
	for i, k := 0, in.Len(); i < k; i++ {
		if slot := b.echoSlot(in.PayloadIDAt(i), in.SenderAt(i)); slot >= 0 {
			b.support(slot)
		} else {
			fresh = append(fresh, int32(i))
		}
	}
	// ⟨init⟩ messages are only meaningful in the first round of a
	// superround; an init from identifier i starts the (m, sr, i) tuple.
	// They go first: a tuple's arena position is its first sight.
	if hom.IsInitRound(round) {
		for _, i := range fresh {
			ip, ok := in.BodyAt(int(i)).(InitPayload)
			if !ok || ip.Body == nil {
				continue
			}
			sender := in.SenderAt(int(i))
			tab.tuples[b.tuple(ip.Body, sr, sender, ip.carried(sr, sender))].echoing = true
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
		pid := in.PayloadIDAt(int(i))
		slot := b.echoSlot(pid, sender)
		if slot < 0 {
			idx := b.echoTuple(in, int(i), ep)
			if pid != msg.NoPayload {
				tab.memoise(pid, idx)
			}
			slot = int(tab.tuples[idx].echoOff) + int(sender)
		}
		b.support(slot)
	}
	tab.rest = rest
	// Threshold checks (cumulative over all rounds), in arena order.
	accepts := tab.accepts[:0]
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
	tab.accepts = accepts
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
// first sight with echo as its ⟨echo m, sr, i⟩ box (nil: box one). The
// tuple key — that echo's payload key — is built in the broadcaster's
// scratch buffer and interned, so a known tuple costs one hash lookup and
// no allocation; because this interner sees only tuple keys, the dense
// KeyID minus one is exactly the arena index.
func (b *Broadcaster) tuple(body msg.Payload, sr int, id hom.Identifier, echo msg.Payload) int {
	return b.tupleAt(b.tab.kb.Reset("abecho").Int(sr).Identifier(id).Nested(body).Intern(b.tab.keys), body, sr, id, echo)
}

// echoTuple is tuple for the echo ep at position i of the inbox, whose
// delivered message key already holds the tuple key: it is the key's
// payload part, everything after the identifier field's '|'. The
// delivered box is the tuple's echo.
func (b *Broadcaster) echoTuple(in *msg.Inbox, i int, ep EchoPayload) int {
	key := in.MessageAt(i).Key()
	return b.tupleAt(b.tab.keys.Intern(key[strings.IndexByte(key, '|')+1:]), ep.Body, ep.SR, ep.ID, in.BodyAt(i))
}

// tupleAt returns the arena index of the tuple interned as kid, creating
// it when kid is new.
func (b *Broadcaster) tupleAt(kid msg.KeyID, body msg.Payload, sr int, id hom.Identifier, echo msg.Payload) int {
	idx := int(kid) - 1
	if idx < len(b.tab.tuples) {
		return idx
	}
	off := int32(len(b.tab.echoers))
	for i := 0; i <= b.l; i++ {
		b.tab.echoers = append(b.tab.echoers, false)
	}
	if echo == nil {
		echo = EchoPayload{Body: body, SR: sr, ID: id}
	}
	b.tab.tuples = append(b.tab.tuples, tupleState{body: body, sr: sr, id: id, echo: echo, echoOff: off})
	return idx
}

// TupleCount reports the number of tracked tuples (for tests and memory
// accounting).
func (b *Broadcaster) TupleCount() int { return len(b.tab.tuples) }

// Clone returns an independent deep copy of the broadcaster, backed by a
// fresh pooled table. The original's tuples are replayed in arena
// (first-sight) order, which reproduces the KeyID assignment and echo
// bitmap layout exactly, so clone and original behave identically from
// here on; they share the immutable echo boxes. The PayloadID memo is not copied: the clone refills it through
// the key path as its own inboxes arrive, exactly as a fresh broadcaster
// does.
func (b *Broadcaster) Clone() *Broadcaster {
	nb := newBroadcaster(b.l, b.t, b.id)
	nb.pending = append(nb.pending, b.pending...)
	for i := range b.tab.tuples {
		ts := &b.tab.tuples[i]
		nt := &nb.tab.tuples[nb.tuple(ts.body, ts.sr, ts.id, ts.echo)]
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
