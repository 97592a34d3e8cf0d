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
// exposes indexed accessors (SenderAt, BodyAt, CountAt, IdentifierRange)
// so receive loops never materialise a []Message view. NewInbox stamps
// loose messages into an arena of the inbox's own; when any of them lacks
// a KeyID the inbox is ranked — key ranks stand in for KeyIDs, and it
// reports NoKey. Inboxes and interners are pooled
// (NewPooledInboxSoA/NewPooledInterner + Recycle), so steady-state rounds
// allocate nothing at all on the engine path.
package msg

import (
	"slices"
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
// for NewPooledInboxSoA and NewInbox; the shell adds only the lazily
// materialised []Message view.
//
// The distinct messages are kept in the deterministic (identifier, KeyID)
// order, where the KeyID order is the execution's first-intern order. An
// inbox built by NewInbox from messages of which any lacks a KeyID is
// ranked instead: each canonical key's rank among the batch's distinct
// keys stands in for its KeyID, so the order is (identifier, key). A
// ranked inbox reports NoKey from KeyIDAt and on every Message read back
// from it.
//
// Receivers that iterate through the indexed accessors (SenderAt, BodyAt,
// CountAt over 0..Len()) never force the []Message view into existence:
// only the int32 sort index and the two integer columns of the arena are
// touched, and the payload column is read just for the entries the
// receiver actually inspects.
type Inbox struct {
	core   *GroupInbox // the storage: own, or a shared one for a view
	own    GroupInbox  // the core of NewPooledInboxSoA and NewInbox
	order  []Message   // sorted []Message view, built on demand
	pooled bool
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

// inboxPool recycles inbox shells (the struct, its own core's buffers and
// its sorted view) across rounds.
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
	in.core = nil
	// Drop payload references so the pool retains no garbage.
	clear(in.order)
	in.order = in.order[:0]
	in.pooled = false
	inboxPool.Put(in)
}

// materialize builds the sorted []Message view on first access.
func (in *Inbox) materialize() []Message {
	g := in.core
	if len(in.order) == len(g.ref) {
		return in.order
	}
	idx := g.sortIndex()
	in.order = slices.Grow(in.order[:0], len(idx))
	for _, j := range idx {
		in.order = append(in.order, g.soa.Message(g.ref[j]))
	}
	return in.order
}

// Numerate reports the reception semantics of the inbox.
func (in *Inbox) Numerate() bool { return in.core.numerate }

// Messages returns the distinct messages received this round, in the
// inbox's sorted order. Callers must not mutate the slice and must not
// retain it past Receive when the inbox is engine-owned.
func (in *Inbox) Messages() []Message { return in.materialize() }

// Count returns the multiplicity of the given message. Innumerate inboxes
// report at most 1. A message never received reports 0. It matches m by
// identifier and canonical key, never by m's KeyID, so a message built by
// hand or interned elsewhere gets its true count; for one read back from
// the inbox (Messages, FromIdentifier) it is a binary search with no key
// rebuilding.
func (in *Inbox) Count(m Message) int {
	g := in.core
	lo, hi := in.IdentifierRange(m.ID)
	key := m.Key()
	for i := lo; i < hi; i++ {
		if r := g.at(i); g.soa.keys[r] == key {
			return g.countOf(r)
		}
	}
	return 0
}

// TotalCount returns the total number of message copies received
// (distinct messages for an innumerate inbox).
func (in *Inbox) TotalCount() int { return in.core.total }

// Len returns the number of distinct messages.
func (in *Inbox) Len() int { return len(in.core.ref) }

// The indexed accessors below address the distinct messages by their
// position 0..Len()-1 in the inbox's deterministic sorted order — the
// same order Messages returns. They are the protocols' string-free
// iteration path: a receive loop over SenderAt/BodyAt/CountAt touches the
// int32 sort index and the arena columns it actually needs, and never
// forces the []Message view (or any Message struct) into existence.

// SenderAt returns the authenticated sender identifier of the i-th
// distinct message in sorted order.
func (in *Inbox) SenderAt(i int) hom.Identifier { return in.core.soa.ids[in.core.at(i)] }

// BodyAt returns the payload of the i-th distinct message in sorted
// order.
func (in *Inbox) BodyAt(i int) Payload { return in.core.soa.bodies[in.core.at(i)] }

// CountAt returns the multiplicity of the i-th distinct message in sorted
// order (always 1 on an innumerate inbox).
func (in *Inbox) CountAt(i int) int { return in.core.countOf(in.core.at(i)) }

// KeyIDAt returns the dense KeyID of the i-th distinct message in sorted
// order, or NoKey on a ranked inbox (then no position has a usable one).
// It is the protocols' table-lookup handle: a receive path that memoised
// what it derived from a message the first time it saw it can index that
// memo by KeyID instead of rebuilding the message's key on every later
// delivery.
//
// The contract that makes this sound is the engines': every inbox one
// process receives over its life carries KeyIDs issued by one Interner
// (or NoKey), so within a process a KeyID names the same canonical
// (identifier, payload) key for the whole execution. A KeyID is still
// only an index — assignment order differs between executions that
// behave identically, so it must never reach a hash, a fingerprint, a
// sort that outlives the inbox, or anything else observable.
func (in *Inbox) KeyIDAt(i int) KeyID { return in.core.soa.keyID(in.core.at(i)) }

// MessageAt materialises the i-th distinct message in sorted order.
func (in *Inbox) MessageAt(i int) Message { return in.core.soa.Message(in.core.at(i)) }

// IdentifierRange returns the half-open position range [lo, hi) of the
// sorted distinct messages whose sender identifier equals id, for use
// with the indexed accessors. lo == hi when the identifier sent nothing.
func (in *Inbox) IdentifierRange(id hom.Identifier) (lo, hi int) {
	g := in.core
	idx, ids := g.sortIndex(), g.soa.ids
	lo = sort.Search(len(idx), func(i int) bool { return ids[g.ref[idx[i]]] >= id })
	hi = lo
	for hi < len(idx) && ids[g.ref[idx[hi]]] == id {
		hi++
	}
	return lo, hi
}

// FromIdentifier returns the distinct messages carrying the given sender
// identifier, in deterministic order. The result is a view into the
// inbox's sorted buffer: callers must not mutate or retain it. Receivers
// on the hot path prefer IdentifierRange plus the indexed accessors,
// which skip the []Message view.
func (in *Inbox) FromIdentifier(id hom.Identifier) []Message {
	lo, hi := in.IdentifierRange(id)
	if lo == hi {
		return nil
	}
	return in.materialize()[lo:hi]
}

// DistinctIdentifiers returns the sorted identifiers from which the
// receiver got at least one message satisfying pred. A nil pred matches
// every message (and walks only the identifier column).
func (in *Inbox) DistinctIdentifiers(pred func(Message) bool) []hom.Identifier {
	var out []hom.Identifier
	in.eachIdentifier(pred, func(id hom.Identifier) { out = append(out, id) })
	return out
}

// CountDistinctIdentifiers returns the number of distinct identifiers with
// at least one message satisfying pred.
func (in *Inbox) CountDistinctIdentifiers(pred func(Message) bool) int {
	count := 0
	in.eachIdentifier(pred, func(hom.Identifier) { count++ })
	return count
}

// eachIdentifier calls yield once per identifier, ascending, with at least
// one message satisfying pred (every message when pred is nil).
func (in *Inbox) eachIdentifier(pred func(Message) bool, yield func(hom.Identifier)) {
	g := in.core
	seen, last := false, hom.Identifier(0)
	for _, j := range g.sortIndex() {
		r := g.ref[j]
		if id := g.soa.ids[r]; (!seen || id != last) && (pred == nil || pred(g.soa.Message(r))) {
			yield(id)
			seen, last = true, id
		}
	}
}

// CountCopies returns the total number of copies, over all sender
// identifiers, of messages satisfying pred. On an innumerate inbox this
// degenerates to the number of distinct matching messages.
func (in *Inbox) CountCopies(pred func(Message) bool) int {
	g := in.core
	if pred == nil {
		return g.total
	}
	total := 0
	for _, j := range g.sortIndex() {
		if r := g.ref[j]; pred(g.soa.Message(r)) {
			total += g.countOf(r)
		}
	}
	return total
}
