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
// KeyID / payload / key columns. Inboxes over it (NewPooledInboxSoA)
// reference entries by int32 index, dedup and count through the KeyID
// column alone, and expose indexed accessors (SenderAt, BodyAt, CountAt,
// IdentifierRange) so receive loops never materialise a []Message view.
// Inboxes and interners are pooled (NewPooledInboxSoA/NewPooledInterner +
// Recycle), so steady-state rounds allocate nothing at all on the engine
// path.
package msg

import (
	"cmp"
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
// The distinct messages are kept in a deterministic sorted order,
// materialised lazily. An inbox built entirely from interned messages
// (the engine path) runs string-free: dedup and counting index a dense
// KeyID->count array and sorted ordering compares (identifier, KeyID)
// pairs, where the KeyID order is the execution's deterministic
// first-intern order. Inboxes with uninterned messages fall back to the
// canonical-key map and (identifier, key) ordering.
//
// Receivers that iterate through the indexed accessors (SenderAt, BodyAt,
// CountAt over 0..Len()) never force the []Message view into existence:
// on the engines' structure-of-arrays path (NewPooledInboxSoA) only the
// int32 sort index and the two integer columns of the shared SendArena
// are touched, and the payload column is read just for the entries the
// receiver actually inspects.
type Inbox struct {
	numerate bool
	interned bool // every message carries a KeyID
	// shared, when non-nil, makes this inbox a read-only view over a
	// GroupInbox: the distinct set, the counts and the sort index all
	// live in the shared core (filled once per equivalence class of
	// recipients), and only the materialised []Message view remains
	// view-local. All other storage fields are unused in this mode.
	shared *GroupInbox
	// Distinct messages in arrival order, in exactly one of two
	// storages: int32 references into a caller-owned SoA send arena (soa;
	// the engine's path — the n^2 delivery fan-out never copies Message
	// structs) or owned copies (msgs).
	soa      *SendArena
	ref      []int32
	msgs     []Message
	orderIdx []int32        // sorted positions over the distinct set
	order    []Message      // sorted []Message view, built on demand
	idxOK    bool           // orderIdx is valid
	viewOK   bool           // order mirrors orderIdx
	counts   map[string]int // message key -> multiplicity (uninterned mode)
	kidCount []int32        // KeyID -> multiplicity (interned mode)
	total    int            // sum of multiplicities
	pooled   bool
}

// distinctLen returns the number of distinct messages.
func (in *Inbox) distinctLen() int {
	if in.shared != nil {
		return len(in.shared.ref)
	}
	if in.soa != nil {
		return len(in.ref)
	}
	return len(in.msgs)
}

// refID returns the sender identifier of the j-th distinct message
// (arrival order), touching only the identifier column.
func (in *Inbox) refID(j int) hom.Identifier {
	switch {
	case in.shared != nil:
		return in.shared.soa.ids[in.shared.ref[j]]
	case in.soa != nil:
		return in.soa.ids[in.ref[j]]
	default:
		return in.msgs[j].ID
	}
}

// refKid returns the KeyID of the j-th distinct message (arrival order),
// touching only the KeyID column.
func (in *Inbox) refKid(j int) KeyID {
	switch {
	case in.shared != nil:
		return in.shared.soa.kids[in.shared.ref[j]]
	case in.soa != nil:
		return in.soa.kids[in.ref[j]]
	default:
		return in.msgs[j].kid
	}
}

// refKey returns the canonical key of the j-th distinct message (arrival
// order). Only the uninterned fallbacks and foreign Count queries need it.
func (in *Inbox) refKey(j int) string {
	switch {
	case in.shared != nil:
		return in.shared.soa.keys[in.shared.ref[j]]
	case in.soa != nil:
		return in.soa.keys[in.ref[j]]
	default:
		return in.msgs[j].key
	}
}

// refMessage materialises the j-th distinct message (arrival order).
func (in *Inbox) refMessage(j int) Message {
	switch {
	case in.shared != nil:
		return in.shared.soa.Message(in.shared.ref[j])
	case in.soa != nil:
		return in.soa.Message(in.ref[j])
	default:
		return in.msgs[j]
	}
}

// countAtRef returns the multiplicity of the j-th distinct message
// (arrival order) on the interned paths, reading the shared core's
// counts for views.
func (in *Inbox) countAtRef(j int) int {
	if in.shared != nil {
		return int(in.shared.kidCount[in.refKid(j)])
	}
	return int(in.kidCount[in.refKid(j)])
}

// NewInbox builds an inbox with the requested reception semantics from the
// raw delivered messages. The raw order does not matter: distinct messages
// are kept in a deterministic sorted order.
func NewInbox(numerate bool, raw []Message) *Inbox {
	in := &Inbox{}
	in.fill(numerate, raw)
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
// valid until the engine resets them for the next round. Arena entries
// are interned by construction, so the inbox always runs on the
// string-free KeyID path. The caller owns the inbox until Recycle.
func NewPooledInboxSoA(numerate bool, arena *SendArena, idx []int32) *Inbox {
	in := inboxPool.Get().(*Inbox)
	in.pooled = true
	in.fillSoA(numerate, arena, idx)
	return in
}

// inboxPool recycles inbox shells (the struct, its sorted buffer, its
// count map and its KeyID count array) across rounds.
var inboxPool = sync.Pool{New: func() any { return new(Inbox) }}

// NewPooledInbox is NewInbox backed by a recycled shell. The caller owns
// the inbox until it calls Recycle; afterwards the inbox and every slice
// returned by its accessors are invalid. The simulation engines use this
// for the per-round inboxes they hand to Process.Receive, which must not
// retain them past the call.
func NewPooledInbox(numerate bool, raw []Message) *Inbox {
	in := inboxPool.Get().(*Inbox)
	in.pooled = true
	in.fill(numerate, raw)
	return in
}

// Recycle resets the inbox and returns it to the pool. Only inboxes from
// the pooled constructors are returned; calling Recycle on a plain inbox
// is a no-op so engine code can recycle unconditionally. After Recycle
// the inbox and every slice its accessors returned are invalid.
func (in *Inbox) Recycle() {
	if !in.pooled {
		return
	}
	switch {
	case in.shared != nil:
		// A view owns no counts: the shared core belongs to whoever
		// filled it, who recycles it once the round is over.
		in.shared = nil
	case in.interned:
		// Zero exactly the counts this round touched; the dense array
		// itself persists across rounds, which is what makes the
		// steady-state fill allocation-free.
		for i, n := 0, in.distinctLen(); i < n; i++ {
			in.kidCount[in.refKid(i)] = 0
		}
	default:
		clear(in.counts)
	}
	// Drop payload references so the pool retains no garbage.
	in.soa = nil
	in.ref = in.ref[:0]
	clear(in.msgs)
	in.msgs = in.msgs[:0]
	clear(in.order)
	in.order = in.order[:0]
	in.orderIdx = in.orderIdx[:0]
	in.idxOK = false
	in.viewOK = false
	in.total = 0
	in.interned = false
	in.pooled = false
	inboxPool.Put(in)
}

// fill (re)builds the inbox contents from raw deliveries.
func (in *Inbox) fill(numerate bool, raw []Message) {
	in.numerate = numerate
	in.total = 0
	in.idxOK, in.viewOK = false, false
	if cap(in.msgs) < len(raw) {
		in.msgs = make([]Message, 0, len(raw))
	}
	maxKid := KeyID(0)
	in.interned = len(raw) > 0
	for i := range raw {
		if raw[i].kid == NoKey {
			in.interned = false
			break
		}
		if raw[i].kid > maxKid {
			maxKid = raw[i].kid
		}
	}
	if in.interned {
		in.kidCount = growCounts(in.kidCount, maxKid)
		for _, m := range raw {
			in.addInterned(m, numerate)
		}
		return
	}
	if in.counts == nil {
		in.counts = make(map[string]int, len(raw))
	}
	for _, m := range raw {
		in.addLegacy(m, numerate)
	}
}

// fillSoA is the structure-of-arrays fill (fillDistinct). Entries are
// interned by construction, so there is no legacy fallback and no
// per-entry branch on NoKey.
func (in *Inbox) fillSoA(numerate bool, arena *SendArena, idx []int32) {
	in.numerate = numerate
	in.idxOK, in.viewOK = false, false
	in.interned = true
	in.soa = arena
	in.ref, in.kidCount, in.total = fillDistinct(numerate, arena, idx, in.ref, in.kidCount)
}

// fillDistinct folds one delivery batch into a KeyID-dense count array,
// reading only the arena's KeyID and copies columns: first sights go to
// ref (reused from its start; at most one per KeyID in play, however many
// homonyms' copies the batch carries), and every entry adds its copies
// for a numerate receiver — one fill of an entry standing for k copies is
// the fill of k entries. It returns ref, the counts and their sum, for
// Inbox and GroupInbox.
func fillDistinct(numerate bool, a *SendArena, idx, ref, counts []int32) ([]int32, []int32, int) {
	kids, copies := a.kids, a.copies
	maxKid := KeyID(0)
	for _, i := range idx {
		maxKid = max(maxKid, kids[i])
	}
	counts = growCounts(counts, maxKid)
	if distinct := min(len(idx), int(maxKid)+1); cap(ref) < distinct {
		ref = make([]int32, 0, distinct)
	}
	ref = ref[:0]
	total := 0
	for _, i := range idx {
		kid, w := kids[i], int32(1)
		switch c := counts[kid]; {
		case c == 0:
			ref = append(ref, i)
		case !numerate:
			continue
		}
		if numerate {
			w = copies[i]
		}
		counts[kid] += w
		total += int(w)
	}
	return ref, counts, total
}

// growCounts sizes a dense count array to cover maxKid.
func growCounts(counts []int32, maxKid KeyID) []int32 {
	n := int(maxKid) + 1
	switch {
	case n <= len(counts):
	case n <= cap(counts):
		// The region beyond the old length was never written (counts are
		// zeroed when their inbox is recycled), so extending is free.
		counts = counts[:n]
	default:
		counts = append(make([]int32, 0, 2*n), counts...)[:n]
	}
	return counts
}

// addInterned folds one interned delivery into the dense counts, keeping
// first sights in the message arena. Sorting is deferred to materialize.
func (in *Inbox) addInterned(m Message, numerate bool) {
	in.total++
	if c := in.kidCount[m.kid]; c > 0 {
		if numerate {
			in.kidCount[m.kid] = c + 1
		} else {
			in.total--
		}
		return
	}
	in.kidCount[m.kid] = 1
	in.msgs = append(in.msgs, m)
}

// addLegacy folds one uninterned delivery into the canonical-key map.
func (in *Inbox) addLegacy(m Message, numerate bool) {
	if in.counts == nil {
		in.counts = make(map[string]int, 8)
	}
	if m.key == "" {
		m.key = messageKey(m.ID, m.Body.Key())
	}
	in.total++
	if c := in.counts[m.key]; c > 0 {
		if numerate {
			in.counts[m.key] = c + 1
		} else {
			in.total--
		}
		return
	}
	in.counts[m.key] = 1
	in.msgs = append(in.msgs, m)
}

// sortIndex builds (on first access) and returns the sorted position
// index over the distinct set: sortIndex()[i] is the arrival-order
// position of the i-th message in sorted order. Interned inboxes order by
// (ID, KeyID), uninterned ones by (ID, canonical key); both orders are
// deterministic for a deterministic execution. Rounds whose receivers
// never look at the messages (or only count) skip the sort entirely, and
// receivers that iterate through the indexed accessors stop here — only
// Messages and FromIdentifier pay for the []Message view on top.
//
// The engines' SoA inboxes derive the index from the arena's one round
// order (orderInbox: a linear walk, or a packed integer sort when the
// inbox is small against the arena); the owned-copy storage, whose
// distinct sets are short or string-keyed, takes a comparison sort on
// the positions. Nothing allocates.
func (in *Inbox) sortIndex() []int32 {
	if in.shared != nil {
		// Views share the core's index: built once per equivalence
		// class.
		return in.shared.sortIndex()
	}
	if in.idxOK {
		return in.orderIdx
	}
	if in.soa != nil {
		in.orderIdx = orderInbox(in.orderIdx, in.ref, in.soa)
		in.idxOK = true
		return in.orderIdx
	}
	in.orderIdx = in.orderIdx[:0]
	for j, k := 0, in.distinctLen(); j < k; j++ {
		in.orderIdx = append(in.orderIdx, int32(j))
	}
	slices.SortFunc(in.orderIdx, func(a, b int32) int {
		if c := cmp.Compare(in.refID(int(a)), in.refID(int(b))); c != 0 {
			return c
		}
		if in.interned {
			return cmp.Compare(in.refKid(int(a)), in.refKid(int(b)))
		}
		// Equal identifiers render identical "id=<id>|" prefixes, so
		// comparing full cached keys orders by payload key.
		return cmp.Compare(in.refKey(int(a)), in.refKey(int(b)))
	})
	in.idxOK = true
	return in.orderIdx
}

// materialize builds the sorted []Message view on first access.
func (in *Inbox) materialize() []Message {
	if in.viewOK {
		return in.order
	}
	idx := in.sortIndex()
	k := len(idx)
	if cap(in.order) < k {
		in.order = make([]Message, 0, k)
	}
	in.order = in.order[:k]
	for i, j := range idx {
		in.order[i] = in.refMessage(int(j))
	}
	in.viewOK = true
	return in.order
}

// Numerate reports the reception semantics of the inbox.
func (in *Inbox) Numerate() bool { return in.numerate }

// Messages returns the distinct messages received this round, in the
// inbox's sorted order. Callers must not mutate the slice and must not
// retain it past Receive when the inbox is engine-owned.
func (in *Inbox) Messages() []Message { return in.materialize() }

// Count returns the multiplicity of the given message. Innumerate inboxes
// report at most 1. A message never received reports 0. For messages
// obtained from the inbox itself (Messages, FromIdentifier) this is a
// single integer index (interned) or map lookup, with no key rebuilding.
func (in *Inbox) Count(m Message) int {
	if !in.interned {
		return in.counts[m.Key()]
	}
	if m.kid != NoKey {
		counts := in.kidCount
		if in.shared != nil {
			counts = in.shared.kidCount
		}
		if int(m.kid) < len(counts) {
			return int(counts[m.kid])
		}
		return 0
	}
	return in.countForeign(m)
}

// countForeign resolves an uninterned query against an interned inbox by
// comparing canonical keys against the small distinct set (rare: only
// hand-built Messages take this path).
func (in *Inbox) countForeign(m Message) int {
	key := m.Key()
	for i, n := 0, in.distinctLen(); i < n; i++ {
		if in.refKey(i) == key {
			return in.countAtRef(i)
		}
	}
	return 0
}

// TotalCount returns the total number of message copies received
// (distinct messages for an innumerate inbox).
func (in *Inbox) TotalCount() int {
	if in.shared != nil {
		return in.shared.total
	}
	return in.total
}

// Len returns the number of distinct messages.
func (in *Inbox) Len() int { return in.distinctLen() }

// The indexed accessors below address the distinct messages by their
// position 0..Len()-1 in the inbox's deterministic sorted order — the
// same order Messages returns. They are the protocols' string-free
// iteration path: a receive loop over SenderAt/BodyAt/CountAt touches the
// int32 sort index and the arena columns it actually needs, and never
// forces the []Message view (or, on the SoA path, any Message struct)
// into existence.

// SenderAt returns the authenticated sender identifier of the i-th
// distinct message in sorted order.
func (in *Inbox) SenderAt(i int) hom.Identifier {
	return in.refID(int(in.sortIndex()[i]))
}

// BodyAt returns the payload of the i-th distinct message in sorted
// order.
func (in *Inbox) BodyAt(i int) Payload {
	j := int(in.sortIndex()[i])
	switch {
	case in.shared != nil:
		return in.shared.soa.bodies[in.shared.ref[j]]
	case in.soa != nil:
		return in.soa.bodies[in.ref[j]]
	default:
		return in.msgs[j].Body
	}
}

// CountAt returns the multiplicity of the i-th distinct message in sorted
// order (always 1 on an innumerate inbox).
func (in *Inbox) CountAt(i int) int {
	j := int(in.sortIndex()[i])
	if in.interned {
		return in.countAtRef(j)
	}
	return in.counts[in.refKey(j)]
}

// KeyIDAt returns the dense KeyID of the i-th distinct message in sorted
// order, or NoKey when the inbox holds any uninterned message (then no
// position has a usable one). It is the protocols' table-lookup handle:
// a receive path that memoised what it derived from a message the first
// time it saw it can index that memo by KeyID instead of rebuilding the
// message's key on every later delivery.
//
// The contract that makes this sound is the engines': every inbox one
// process receives over its life carries KeyIDs issued by one Interner
// (or NoKey), so within a process a KeyID names the same canonical
// (identifier, payload) key for the whole execution. A KeyID is still
// only an index — assignment order differs between executions that
// behave identically, so it must never reach a hash, a fingerprint, a
// sort that outlives the inbox, or anything else observable.
func (in *Inbox) KeyIDAt(i int) KeyID {
	if !in.interned {
		return NoKey
	}
	return in.refKid(int(in.sortIndex()[i]))
}

// MessageAt materialises the i-th distinct message in sorted order.
func (in *Inbox) MessageAt(i int) Message {
	return in.refMessage(int(in.sortIndex()[i]))
}

// IdentifierRange returns the half-open position range [lo, hi) of the
// sorted distinct messages whose sender identifier equals id, for use
// with the indexed accessors. lo == hi when the identifier sent nothing.
func (in *Inbox) IdentifierRange(id hom.Identifier) (lo, hi int) {
	idx := in.sortIndex()
	lo = sort.Search(len(idx), func(i int) bool { return in.refID(int(idx[i])) >= id })
	hi = lo
	for hi < len(idx) && in.refID(int(idx[hi])) == id {
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
	order := in.materialize()
	lo := sort.Search(len(order), func(i int) bool { return order[i].ID >= id })
	hi := lo
	for hi < len(order) && order[hi].ID == id {
		hi++
	}
	if lo == hi {
		return nil
	}
	return order[lo:hi]
}

// DistinctIdentifiers returns the sorted identifiers from which the
// receiver got at least one message satisfying pred. A nil pred matches
// every message (and walks only the identifier column).
func (in *Inbox) DistinctIdentifiers(pred func(Message) bool) []hom.Identifier {
	var out []hom.Identifier
	if pred == nil {
		for _, j := range in.sortIndex() {
			id := in.refID(int(j))
			if len(out) == 0 || out[len(out)-1] != id {
				out = append(out, id)
			}
		}
		return out
	}
	for _, m := range in.materialize() {
		if !pred(m) {
			continue
		}
		if len(out) == 0 || out[len(out)-1] != m.ID {
			out = append(out, m.ID)
		}
	}
	return out
}

// CountDistinctIdentifiers returns the number of distinct identifiers with
// at least one message satisfying pred.
func (in *Inbox) CountDistinctIdentifiers(pred func(Message) bool) int {
	count := 0
	last := hom.Identifier(0)
	if pred == nil {
		for _, j := range in.sortIndex() {
			if id := in.refID(int(j)); count == 0 || id != last {
				count++
				last = id
			}
		}
		return count
	}
	for _, m := range in.materialize() {
		if !pred(m) {
			continue
		}
		if count == 0 || m.ID != last {
			count++
			last = m.ID
		}
	}
	return count
}

// CountCopies returns the total number of copies, over all sender
// identifiers, of messages satisfying pred. On an innumerate inbox this
// degenerates to the number of distinct matching messages.
func (in *Inbox) CountCopies(pred func(Message) bool) int {
	if pred == nil {
		return in.TotalCount()
	}
	total := 0
	if in.interned {
		for _, j := range in.sortIndex() {
			if pred(in.refMessage(int(j))) {
				total += in.countAtRef(int(j))
			}
		}
		return total
	}
	for _, m := range in.materialize() {
		if pred(m) {
			total += in.counts[m.key]
		}
	}
	return total
}

// itoa is a minimal allocation-conscious int-to-string helper used in hot
// key-building paths (strconv would also do; kept local to avoid importing
// strconv into every payload key builder that uses msg helpers).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
