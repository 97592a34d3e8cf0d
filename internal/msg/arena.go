package msg

import (
	"slices"

	"homonyms/internal/hom"
)

// SendArena is the engines' per-round send buffer in structure-of-arrays
// layout: one entry per stamped send, split into parallel columns so that
// the hot inbox operations (dedup, copy counting, sorted ordering) touch
// only the two integer columns and never scan the payload column.
//
// Columns (index i describes the i-th stamped send of the round):
//
//   - ids[i]    — the sender's authenticated identifier
//   - kids[i]   — the dense KeyID of the canonical (identifier, payload)
//     key, interned at stamp time; never NoKey
//   - bodies[i] — the payload itself, only dereferenced when a receiver
//     materialises messages
//   - keys[i]   — the canonical key string, aliasing the intern table's
//     copy (no per-send allocation)
//   - copies[i] — the send's multiplicity: how many indistinguishable
//     senders it stands for (1 but for a counting class sending once for
//     all its members); inbox fills and the engines' statistics count
//     each delivery of the entry that many times
//
// Invariants: entries are appended exactly once per send, in the engine's
// deterministic send order, which is also the intern order — so KeyID
// assignment is a pure function of the execution. The arena is engine
// round scratch: Reset is called at the start of every round and the
// columns are reused, so the steady-state stamping path allocates nothing.
// Inboxes built over the arena (NewPooledInboxSoA) reference entries by
// int32 index and are only valid while the round's entries are live, i.e.
// until the next Reset.
//
// One order per round: the (identifier, KeyID) order of the entries is
// built once, by the first inbox that asks (sorted), and arena-sized
// inboxes derive their permutation from it instead of each sorting the
// same entries. A SendArena must not be copied after first use.
type SendArena struct {
	ids    []hom.Identifier
	kids   []KeyID
	bodies []Payload
	keys   []string
	copies []int32

	order []int32 // the lazy round order: valid while it covers every entry
	every []int32 // 0, 1, 2, ...: the whole arena as an orderRefs distinct set

	// ranked marks an arena stamped by NewInbox from messages of which
	// some lack a KeyID: kids[i] is then the rank of keys[i] among the
	// arena's distinct keys, which orders and dedups like a KeyID but is
	// none, so entries read back NoKey.
	ranked bool
}

// Reset truncates the arena for a new round, keeping column capacity.
// Payload and key references from the previous round are dropped so the
// arena retains no garbage across rounds.
func (a *SendArena) Reset() {
	clear(a.bodies)
	clear(a.keys)
	a.ids = a.ids[:0]
	a.kids = a.kids[:0]
	a.bodies = a.bodies[:0]
	a.keys = a.keys[:0]
	a.copies = a.copies[:0]
	a.order = a.order[:0]
}

// Len returns the number of stamped sends.
func (a *SendArena) Len() int { return len(a.ids) }

// Append stamps one send into the arena: the canonical (id, body) key is
// built in the interner's scratch buffer and interned exactly once, so a
// key seen before costs one hash lookup and zero allocations. It returns
// the new entry's arena index. The entry stands for one copy.
func (a *SendArena) Append(it *Interner, id hom.Identifier, body Payload, bodyKey string) int32 {
	kid, _ := it.InternMessageKey(int64(id), bodyKey)
	return a.AppendStamped(it, id, body, kid, 1)
}

// AppendStamped is Append for a send whose message key the caller holds
// as a KeyID of it (KeyBuilder.InternMessage, or a StampMemo's), standing
// for copies >= 1 indistinguishable sends: five column appends, no key
// built and nothing hashed.
func (a *SendArena) AppendStamped(it *Interner, id hom.Identifier, body Payload, kid KeyID, copies int32) int32 {
	i := int32(len(a.ids))
	a.ids = append(a.ids, id)
	a.kids = append(a.kids, kid)
	a.bodies = append(a.bodies, body)
	a.keys = append(a.keys, it.Key(kid))
	a.copies = append(a.copies, copies)
	return i
}

// sorted returns the entries by ascending (identifier, KeyID) — equal
// pairs, homonyms' copies of one message, by index — built on first demand
// (and again if entries were appended since).
func (a *SendArena) sorted() []int32 {
	if len(a.order) != len(a.ids) {
		for len(a.every) < len(a.ids) {
			a.every = append(a.every, int32(len(a.every)))
		}
		a.order = orderRefs(slices.Grow(a.order[:0], len(a.ids)), a.every[:len(a.ids)], a.ids, a.kids)
	}
	return a.order
}

// ID returns the sender identifier of entry i.
func (a *SendArena) ID(i int32) hom.Identifier { return a.ids[i] }

// KID returns the dense KeyID of entry i.
func (a *SendArena) KID(i int32) KeyID { return a.kids[i] }

// Copies returns the multiplicity of entry i.
func (a *SendArena) Copies(i int32) int32 { return a.copies[i] }

// Body returns the payload of entry i.
func (a *SendArena) Body(i int32) Payload { return a.bodies[i] }

// Key returns the canonical key of entry i (shared with the intern
// table).
func (a *SendArena) Key(i int32) string { return a.keys[i] }

// Message materialises entry i as a Message value (for traffic records
// and the inbox's sorted view).
func (a *SendArena) Message(i int32) Message {
	return Message{ID: a.ids[i], Body: a.bodies[i], key: a.keys[i], kid: a.keyID(i)}
}

// keyID returns the KeyID of entry i, or NoKey on a ranked arena.
func (a *SendArena) keyID(i int32) KeyID {
	if a.ranked {
		return NoKey
	}
	return a.kids[i]
}

// stampBatch stamps raw into an empty arena, one entry of one copy per
// message, and returns the whole arena as a delivery batch. Entries keep
// their messages' KeyIDs when every message carries one (from one
// interner). Otherwise the arena is ranked: each entry's KeyID column
// holds its canonical key's 1-based rank among the batch's distinct keys,
// so ordering by (identifier, rank) is ordering by (identifier, key), and
// no interner is involved.
func (a *SendArena) stampBatch(raw []Message) []int32 {
	n := len(raw)
	a.ids, a.kids = make([]hom.Identifier, n), make([]KeyID, n)
	a.bodies, a.keys = make([]Payload, n), make([]string, n)
	a.copies, a.every = make([]int32, n), make([]int32, n)
	for i, m := range raw {
		a.ids[i], a.kids[i], a.bodies[i], a.keys[i] = m.ID, m.kid, m.Body, m.Key()
		a.copies[i], a.every[i] = 1, int32(i)
		a.ranked = a.ranked || m.kid == NoKey
	}
	if a.ranked {
		distinct := slices.Compact(slices.Sorted(slices.Values(a.keys)))
		for i, key := range a.keys {
			rank, _ := slices.BinarySearch(distinct, key)
			a.kids[i] = KeyID(rank + 1)
		}
	}
	return a.every
}

// StampMemo is a sender's memory of one stamped send. A payload re-sent
// round after round (a standing echo, an unchanged proper set) has the
// same message key every time, so its sender offers a memo with it
// (Send.Memo): the first stamp fills it with the key's KeyID and the
// payload's key length, and later stamps read them back instead of
// rebuilding and re-hashing the key — stamp once per execution. A KeyID
// belongs to one interner epoch and a message key to one identifier, so a
// memo answers only for what it was filled under; anything else takes the
// key path and leaves the memo to its owner. The zero value is unowned;
// owners that pool memos zero them between executions.
type StampMemo struct {
	it     *Interner
	epoch  uint32
	kid    KeyID
	id     hom.Identifier
	keyLen int32
}

// Lookup returns the memoised KeyID and payload key length if the memo was
// filled under it (since its last Reset) for id. A nil memo never hits.
func (m *StampMemo) Lookup(it *Interner, id hom.Identifier) (kid KeyID, keyLen int, ok bool) {
	if m == nil || m.it != it || m.epoch != it.epoch || m.id != id {
		return NoKey, 0, false
	}
	return m.kid, int(m.keyLen), true
}

// Fill records what the key path derived, if the memo is unowned.
func (m *StampMemo) Fill(it *Interner, id hom.Identifier, kid KeyID, keyLen int) {
	if m != nil && m.it == nil {
		*m = StampMemo{it: it, epoch: it.epoch, kid: kid, id: id, keyLen: int32(keyLen)}
	}
}
