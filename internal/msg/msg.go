// Package msg defines the message layer for the homonym model: payloads
// with canonical keys, broadcast and targeted sends, and per-round inboxes
// with set semantics (innumerate receivers) or multiset semantics
// (numerate receivers).
//
// Authentication is enforced by the simulation engine, not by the payloads:
// every delivered message carries the true identifier of its sender's slot,
// which a Byzantine process cannot forge (paper §2).
//
// Canonical keys are the unit of message identity and dominate the
// simulator's hot path, so they are computed once per message and then
// symbolized: a per-execution Interner maps each canonical key to a dense
// KeyID at message construction (NewMessageInterned, the Router's stamp),
// and every Inbox operation afterwards — dedup, copy counting, sorted
// ordering — compares and indexes integers instead of hashing strings.
//
// The engines' round storage is the SendArena: a structure-of-arrays
// buffer holding each stamped send once, split into parallel identifier /
// KeyID / payload / key columns. Every Inbox has one storage, a
// GroupInbox core filled over such an arena: it references entries by
// int32 index, dedups and counts through the KeyID column alone, and
// is read only through indexed accessors (SenderAt, BodyAt, CountAt,
// IdentifierRange), so receive loops build no Message. NewInbox stamps
// loose messages into an arena of the inbox's own; when any of them lacks
// a KeyID the inbox is ranked — key ranks stand in for KeyIDs, and it
// reports NoKey. Inboxes and interners are pooled
// (NewPooledInboxSoA/NewPooledInterner + Recycle), so steady-state rounds
// allocate nothing at all on the engine path.
package msg

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"homonyms/internal/hom"
)

// Payload is the body of a protocol message. Implementations must be
// immutable once sent and must provide a canonical key: two payloads are
// "identical messages" in the paper's sense exactly when their keys are
// equal. Keys are also the unit of deduplication for innumerate receivers
// and of copy-counting for numerate receivers.
type Payload interface {
	// Key returns the canonical representation of the payload. It must be
	// injective over the payload type's value space and stable across
	// calls.
	Key() string
}

// Message is a payload stamped with its sender's authenticated identifier.
// The receiver learns nothing else about the sender: two homonyms are
// indistinguishable.
//
// Messages built through NewMessage or NewMessageKeyed carry their
// canonical key precomputed; the engines build them through the interning
// variants, which additionally stamp a dense KeyID so every downstream
// comparison is integer work. Composite literals still work and fall back
// to computing the key on demand.
type Message struct {
	ID   hom.Identifier
	Body Payload

	// key caches the canonical (identifier, payload) key. Empty for
	// literal-constructed messages; Key() recomputes in that case.
	key string
	// kid is the key's dense ID in the execution's intern table; NoKey
	// for messages built without an interner.
	kid KeyID
}

// NewMessage stamps body with id and precomputes the canonical key.
func NewMessage(id hom.Identifier, body Payload) Message {
	return Message{ID: id, Body: body, key: messageKey(id, body.Key())}
}

// NewMessageKeyed is NewMessage for callers that already hold body.Key()
// (the engine computes it once per send and reuses it across recipients).
func NewMessageKeyed(id hom.Identifier, body Payload, bodyKey string) Message {
	return Message{ID: id, Body: body, key: messageKey(id, bodyKey)}
}

// NewMessageInterned is NewMessage with the canonical key symbolized in
// it: the key is built in the interner's scratch buffer, so a message
// that was seen before costs one hash lookup and allocates nothing
// beyond body.Key itself.
func NewMessageInterned(it *Interner, id hom.Identifier, body Payload) Message {
	kid, key := it.InternMessageKey(int64(id), body.Key())
	return Message{ID: id, Body: body, key: key, kid: kid}
}

// Key returns the canonical key of the (identifier, payload) pair.
func (m Message) Key() string {
	if m.key != "" {
		return m.key
	}
	return messageKey(m.ID, m.Body.Key())
}

// KeyID returns the message's dense key ID, or NoKey when the message was
// built without an interner.
func (m Message) KeyID() KeyID { return m.kid }

// messageKey builds "id=<id>|<bodyKey>" in a single allocation.
func messageKey(id hom.Identifier, bodyKey string) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(id), 10)
	var sb strings.Builder
	sb.Grow(len("id=") + len(d) + 1 + len(bodyKey))
	sb.WriteString("id=")
	sb.Write(d)
	sb.WriteByte('|')
	sb.WriteString(bodyKey)
	return sb.String()
}

// TargetKind selects the destination set of a correct process's send.
type TargetKind int

const (
	// ToAll delivers to every process (including the sender itself;
	// self-delivery is reliable).
	ToAll TargetKind = iota + 1
	// ToIdentifier delivers to every process holding a given identifier.
	// The paper's model allows directing a message "to all processes that
	// have a particular identifier" but never to an individual process.
	ToIdentifier
)

// Send is an outgoing message from a correct process. Correct processes
// cannot address individual processes, only everyone or an identifier
// group.
type Send struct {
	Kind TargetKind
	// To is the destination identifier when Kind == ToIdentifier.
	To   hom.Identifier
	Body Payload
	// Memo is the sender's stamp memo for Body, or nil: it changes what
	// stamping a re-sent payload costs, never what is sent.
	Memo *StampMemo
	// Standing promises that the sender re-offers Body, with the same
	// Memo, in every later round, and that a receiver processing a
	// repeat changes nothing. The engines may then account a repeat
	// without stamping it: it reaches the full inbox but not its Delta.
	Standing bool
}

// Broadcast builds a ToAll send.
func Broadcast(body Payload) Send { return Send{Kind: ToAll, Body: body} }

// SendTo builds a ToIdentifier send.
func SendTo(id hom.Identifier, body Payload) Send {
	return Send{Kind: ToIdentifier, To: id, Body: body}
}

// TargetedSend is an outgoing message from a Byzantine process, which —
// unlike a correct process — may tailor messages per recipient slot and
// (unless restricted) may send several messages to the same recipient in
// one round.
type TargetedSend struct {
	// ToSlot is the recipient's engine slot (Byzantine processes are
	// omniscient and may use internal process names; correct processes
	// never see slots).
	ToSlot int
	Body   Payload
	// Forwards is the send whose Body this one repeats, or nil. Within
	// one Byzantine slot's sends for one round, sends naming the same
	// Forwards carry that send's Body, so the engine keys it once: it
	// changes what stamping a copy costs, never what is sent.
	Forwards *Send
}

// Delivered records one delivered message for tracing and adversary
// observation.
type Delivered struct {
	Round    int
	FromSlot int
	ToSlot   int
	Msg      Message
}

// Inbox is the collection of messages a process receives in one round.
// For an innumerate receiver it behaves as a set: duplicate
// (identifier, payload) pairs collapse and Count always returns 1.
// For a numerate receiver it behaves as a multiset and Count returns the
// number of copies received.
//
// An Inbox has one storage: a filled GroupInbox core over a SendArena,
// which holds the distinct messages as int32 references into the arena,
// their KeyID-dense counts and a lazy sort index. The core is the
// Router's shared one for a view (NewPooledInboxView), or the shell's own
// for NewPooledInboxSoA and NewInbox.
//
// The distinct messages are kept in the deterministic (identifier, KeyID)
// order, where the KeyID order is the execution's first-intern order. An
// inbox built by NewInbox from messages of which any lacks a KeyID is
// ranked instead: each canonical key's rank among the batch's distinct
// keys stands in for its KeyID, so the order is (identifier, key). A
// ranked inbox reports NoKey on every Message read back from it.
//
// Receivers iterate through the indexed accessors (SenderAt, BodyAt,
// CountAt over 0..Len()): only the int32 sort index and the two integer
// columns of the arena are touched, and the payload column is read just
// for the entries the receiver actually inspects.
//
// A delta inbox (a view given standing entries) holds what the round
// stamped for its recipient in one core and answers every accessor over
// that batch plus the standing sends it was spared: that union core is
// filled on first demand. Delta reads the stamped core alone.
type Inbox struct {
	core   *GroupInbox // the storage: own, shared, or a delta inbox's union once asked for
	own    GroupInbox  // the core of NewPooledInboxSoA and NewInbox
	pooled bool
	delta  *GroupInbox // a delta inbox's stamped core; nil otherwise
	dview  *Inbox      // Delta's view over delta, drawn on first call
}

// NewInbox builds an inbox with the requested reception semantics from the
// raw delivered messages. The raw order does not matter: distinct messages
// are kept in a deterministic sorted order. The messages are stamped into
// a SendArena of the inbox's own, keeping their KeyIDs when every one
// carries one and ranked by key otherwise.
func NewInbox(numerate bool, raw []Message) *Inbox {
	a := new(SendArena)
	in := &Inbox{}
	in.own.fillDistinct(numerate, a, a.stampBatch(raw))
	in.core = &in.own
	return in
}

// NewPooledInboxSoA is the engines' inbox constructor: the round's sends
// live once in a structure-of-arrays SendArena and each receiver's
// deliveries are int32 indices into it. The fill path reads only the
// KeyID column — one bounds-checked pass over idx — and the payload
// column is never scanned unless the receiver materialises messages.
// Steady state allocates nothing (the dense count array, the ref buffer
// and the sort index are all recycled with the inbox shell).
//
// The arena is engine round scratch and must outlive the inbox: both are
// valid until the engine resets them for the next round. The caller owns
// the inbox until Recycle.
func NewPooledInboxSoA(numerate bool, arena *SendArena, idx []int32) *Inbox {
	in := inboxPool.Get().(*Inbox)
	in.pooled = true
	in.own.fillDistinct(numerate, arena, idx)
	in.core = &in.own
	return in
}

// inboxPool recycles inbox shells (the struct and its own core's buffers)
// across rounds.
var inboxPool = sync.Pool{New: func() any { return new(Inbox) }}

// Recycle resets the inbox and returns it to the pool. Only inboxes from
// the pooled constructors are returned; calling Recycle on a plain inbox
// is a no-op so engine code can recycle unconditionally. After Recycle
// the inbox and every slice its accessors returned are invalid. A view
// returns only its shell: the shared core belongs to whoever filled it.
func (in *Inbox) Recycle() {
	if !in.pooled {
		return
	}
	in.own.reset() // empty already for a view
	if in.dview != nil {
		in.dview.Recycle()
	}
	in.core, in.delta, in.dview = nil, nil, nil
	in.pooled = false
	inboxPool.Put(in)
}

// full returns the core every accessor but Delta reads, filling a delta
// inbox's union on first demand.
func (in *Inbox) full() *GroupInbox {
	if in.core == nil {
		in.core = in.delta.unionCore()
	}
	return in.core
}

// Delta returns the part of the inbox the round stamped: the inbox
// without the standing sends (Send.Standing) the engine accounted but
// did not re-deliver, every one of which reached the recipient in an
// earlier round. A receiver for which such a repeat changes nothing may
// walk Delta instead of the inbox. On an inbox with no such sends —
// NewInbox's, and every inbox of a round that spared nothing — it is the
// inbox itself. The view is valid as long as the inbox.
func (in *Inbox) Delta() *Inbox {
	if in.delta == nil {
		return in
	}
	if in.dview == nil {
		in.dview = NewPooledInboxView(in.delta)
	}
	return in.dview
}

// Numerate reports the reception semantics of the inbox.
func (in *Inbox) Numerate() bool { return in.full().numerate }

// TotalCount returns the total number of message copies received
// (distinct messages for an innumerate inbox).
func (in *Inbox) TotalCount() int { return in.full().total }

// Len returns the number of distinct messages.
func (in *Inbox) Len() int { return len(in.full().ref) }

// The indexed accessors below address the distinct messages by their
// position 0..Len()-1 in the inbox's deterministic sorted order. They are
// the protocols' string-free iteration path: a receive loop over
// SenderAt/BodyAt/CountAt touches the int32 sort index and the arena
// columns it actually needs, and builds no Message struct.

// SenderAt returns the authenticated sender identifier of the i-th
// distinct message in sorted order.
func (in *Inbox) SenderAt(i int) hom.Identifier { g := in.full(); return g.soa.ids[g.at(i)] }

// BodyAt returns the payload of the i-th distinct message in sorted
// order.
func (in *Inbox) BodyAt(i int) Payload { g := in.full(); return g.soa.bodies[g.at(i)] }

// CountAt returns the multiplicity of the i-th distinct message in sorted
// order (always 1 on an innumerate inbox).
func (in *Inbox) CountAt(i int) int { g := in.full(); return g.countOf(g.at(i)) }

// PayloadIDAt returns the PayloadID of the i-th distinct message in
// sorted order: one ID for every sender identifier's copy of a payload,
// or NoPayload on an inbox built by NewInbox. It is the protocols'
// table-lookup handle: a receive path that memoised what it derived from
// a payload the first time it saw it can index that memo by PayloadID
// instead of rebuilding the payload's key on every later delivery.
//
// The contract that makes this sound is the engines': every inbox one
// process receives over its life is stamped through one Interner (or
// carries NoPayload), so within a process a PayloadID names the same
// payload key for the whole execution. A PayloadID is still only an
// index — assignment order differs between executions that behave
// identically, so it must never reach a hash, a fingerprint, a sort that
// outlives the inbox, or anything else observable.
func (in *Inbox) PayloadIDAt(i int) PayloadID { g := in.full(); return g.soa.pids[g.at(i)] }

// MessageAt materialises the i-th distinct message in sorted order.
func (in *Inbox) MessageAt(i int) Message { g := in.full(); return g.soa.Message(g.at(i)) }

// IdentifierRange returns the half-open position range [lo, hi) of the
// sorted distinct messages whose sender identifier equals id, for use
// with the indexed accessors. lo == hi when the identifier sent nothing.
func (in *Inbox) IdentifierRange(id hom.Identifier) (lo, hi int) {
	g := in.full()
	idx, ids := g.sortIndex(), g.soa.ids
	lo = sort.Search(len(idx), func(i int) bool { return ids[g.ref[idx[i]]] >= id })
	hi = lo
	for hi < len(idx) && ids[g.ref[idx[hi]]] == id {
		hi++
	}
	return lo, hi
}
