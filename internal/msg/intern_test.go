package msg

import (
	"math/bits"
	"strconv"
	"strings"
	"testing"

	"homonyms/internal/hom"
)

func TestInternerAssignsDenseIDs(t *testing.T) {
	it := NewInterner()
	a := it.Intern("alpha")
	b := it.Intern("beta")
	if a != 1 || b != 2 {
		t.Fatalf("ids = %d, %d; want dense 1, 2", a, b)
	}
	if got := it.Intern("alpha"); got != a {
		t.Fatalf("re-intern changed id: %d != %d", got, a)
	}
	if it.Len() != 2 {
		t.Fatalf("Len = %d, want 2", it.Len())
	}
	if it.Key(a) != "alpha" || it.Key(b) != "beta" {
		t.Fatalf("Key round-trip broken: %q, %q", it.Key(a), it.Key(b))
	}
	if it.Key(NoKey) != "" || it.Key(99) != "" {
		t.Fatal("out-of-range Key must return empty")
	}
	if it.Lookup("gamma") != NoKey {
		t.Fatal("Lookup must not intern")
	}
	if it.Len() != 2 {
		t.Fatal("Lookup grew the table")
	}
}

func TestInternerResetRestartsIDs(t *testing.T) {
	it := NewInterner()
	it.Intern("x")
	it.Intern("y")
	it.Reset()
	if it.Len() != 0 {
		t.Fatalf("Len after Reset = %d", it.Len())
	}
	if got := it.Intern("y"); got != 1 {
		t.Fatalf("first id after Reset = %d, want 1", got)
	}
}

func TestInternBytesAllocationFree(t *testing.T) {
	it := NewInterner()
	key := []byte("vote|3|1")
	it.InternBytes(key)
	allocs := testing.AllocsPerRun(100, func() {
		if it.InternBytes(key) != 1 {
			t.Fatal("wrong id")
		}
	})
	if allocs != 0 {
		t.Fatalf("InternBytes of a known key allocated %.1f times, want 0", allocs)
	}
}

func TestKeyBuilderInternMatchesString(t *testing.T) {
	it := NewInterner()
	kb := NewKey("vote")
	kid := kb.Int(7).Value(3).Intern(it)
	if want := NewKey("vote").Int(7).Value(3).String(); it.Key(kid) != want {
		t.Fatalf("interned %q, String %q", it.Key(kid), want)
	}
	// Reset reuses the buffer and must not corrupt previously interned
	// keys (the interner copied the bytes on first sight).
	kb.Reset("ack").Int(1).Intern(it)
	if it.Key(kid) != "vote|7|3" {
		t.Fatalf("interned key corrupted by builder reuse: %q", it.Key(kid))
	}
}

// TestKeyBuilderStrCollisionSafety pins the Str escaping: embedding one
// canonical key inside another (envelopes, echo tuples carrying payload
// keys) must never make two structurally different payloads collide.
func TestKeyBuilderStrCollisionSafety(t *testing.T) {
	pairs := [][2]string{
		{NewKey("env").Str("a|b").String(), NewKey("env").Str("a").Str("b").String()},
		{NewKey("env").Str(`a\`).Str("b").String(), NewKey("env").Str(`a\|b`).String()},
		{NewKey("env").Str("").Str("x").String(), NewKey("env").Str("|x").String()},
		{NewKey("env").Str(`\`).String(), NewKey("env").Str(`\\`).String()},
	}
	for _, p := range pairs {
		if p[0] == p[1] {
			t.Fatalf("collision: %q built from distinct field structures", p[0])
		}
	}
	// Plain fields stay readable and unescaped.
	if got := NewKey("vote").Int(7).Str("x").String(); got != "vote|7|x" {
		t.Fatalf("plain Str mangled: %q", got)
	}
}

func TestMessageInterningSharesKeys(t *testing.T) {
	it := NewInterner()
	m1 := NewMessageInterned(it, 3, Raw("payload"))
	m2 := NewMessageInterned(it, 3, Raw("payload"))
	if m1.KeyID() == NoKey || m1.KeyID() != m2.KeyID() {
		t.Fatalf("same message interned to %d and %d", m1.KeyID(), m2.KeyID())
	}
	if m1.Key() != NewMessage(3, Raw("payload")).Key() {
		t.Fatalf("interned key %q diverges from canonical %q", m1.Key(), NewMessage(3, Raw("payload")).Key())
	}
	if m3 := NewMessageInterned(it, 4, Raw("payload")); m3.KeyID() == m1.KeyID() {
		t.Fatal("different identifiers shared a KeyID")
	}
}

// TestInboxInternedMatchesLegacy checks an inbox that keeps its
// messages' KeyIDs and a ranked one agree on counts, totals and
// membership for the same deliveries.
func TestInboxInternedMatchesLegacy(t *testing.T) {
	for _, numerate := range []bool{false, true} {
		it := NewInterner()
		bodies := []Raw{"a", "b", "a", "c", "a", "b"}
		ids := []hom.Identifier{2, 1, 2, 3, 1, 1}
		var interned, legacy []Message
		for i := range bodies {
			interned = append(interned, NewMessageInterned(it, ids[i], bodies[i]))
			legacy = append(legacy, Message{ID: ids[i], Body: bodies[i]})
		}
		a := NewInbox(numerate, interned)
		b := NewInbox(numerate, legacy)
		if a.Len() != b.Len() || a.TotalCount() != b.TotalCount() {
			t.Fatalf("numerate=%v: len/total diverge: (%d,%d) vs (%d,%d)",
				numerate, a.Len(), a.TotalCount(), b.Len(), b.TotalCount())
		}
		for _, m := range messages(b) {
			if countOf(a, m) != countOf(b, m) {
				t.Fatalf("numerate=%v: count of %q diverges: %d vs %d",
					numerate, m.Key(), countOf(a, m), countOf(b, m))
			}
		}
		for id := hom.Identifier(1); id <= 3; id++ {
			alo, ahi := a.IdentifierRange(id)
			blo, bhi := b.IdentifierRange(id)
			if alo != blo || ahi != bhi {
				t.Fatalf("identifier %d: range [%d,%d) vs [%d,%d)", id, alo, ahi, blo, bhi)
			}
		}
	}
}

// TestInternedInboxZeroAlloc pins the steady state of a round built from
// interned messages: restamping them into a reused arena by their KeyIDs
// (AppendStamped, as the engines stamp memoised sends) and filling a
// pooled inbox over it allocates nothing once the buffers have grown.
func TestInternedInboxZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; zero-alloc only holds in normal builds")
	}
	it := NewInterner()
	raw := make([]Message, 0, 16)
	for s := 0; s < 16; s++ {
		raw = append(raw, NewMessageInterned(it, hom.Identifier(s%8+1), Raw("propose|"+strconv.Itoa(s%8+1))))
	}
	arena := &SendArena{}
	idx := make([]int32, len(raw))
	round := func() {
		arena.Reset()
		for i, m := range raw {
			idx[i] = arena.AppendStamped(it, m.ID, m.Body, m.KeyID(), 1)
		}
		in := NewPooledInboxSoA(true, arena, idx)
		if in.Len() != 8 || in.TotalCount() != 16 {
			t.Fatalf("len/total %d/%d, want 8/16", in.Len(), in.TotalCount())
		}
		if in.MessageAt(0) != raw[0] {
			t.Fatal("bad order")
		}
		in.Recycle()
	}
	round() // warm the pool, the arena and the dense count array
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("interned pooled inbox path allocated %.1f times per round, want 0", allocs)
	}
}

func TestIndexedInboxHonoursIndices(t *testing.T) {
	it := NewInterner()
	arena := &SendArena{}
	for i, body := range []Raw{"x", "y", "z"} {
		arena.Append(it, hom.Identifier(i+1), body, body.Key())
	}
	// Receiver got two copies of entry 1 and one of entry 0; entry 2 was
	// dropped.
	in := NewPooledInboxSoA(true, arena, []int32{1, 0, 1})
	defer in.Recycle()
	if in.Len() != 2 || in.TotalCount() != 3 {
		t.Fatalf("len=%d total=%d, want 2, 3", in.Len(), in.TotalCount())
	}
	if got := countOf(in, arena.Message(1)); got != 2 {
		t.Fatalf("count of y = %d, want 2", got)
	}
	if got := countOf(in, arena.Message(2)); got != 0 {
		t.Fatalf("count of z = %d, want 0 (dropped)", got)
	}
}

func TestInternerSnapshot(t *testing.T) {
	it := NewInterner()
	it.Intern("one")
	it.Intern("two")
	snap := it.Snapshot()
	if len(snap) != 2 || snap[0] != "one" || snap[1] != "two" {
		t.Fatalf("Snapshot = %v", snap)
	}
}

// TestInternedKeysOutliveRecycle pins the key chunks' contract: the
// strings Key and InternMessageKey return stay byte-identical after the
// interner that issued them is recycled and reused for other keys, and
// after the scratch the keys were built in is overwritten. The long key
// takes the path of a key that outgrows every chunk size.
func TestInternedKeysOutliveRecycle(t *testing.T) {
	it := NewPooledInterner()
	long := strings.Repeat("x", 2*maxChunk)
	var kept, want []string
	var scratch []byte
	for i := 0; i < 500; i++ {
		body := "body" + strconv.Itoa(i)
		if i == 250 {
			body = long
		}
		_, key := it.InternMessageKey(int64(i%7), body)
		kept, want = append(kept, key), append(want, "id="+strconv.Itoa(i%7)+"|"+body)
		scratch = append(scratch[:0], "bytes"...)
		scratch = strconv.AppendInt(scratch, int64(i), 10)
		kept, want = append(kept, it.Key(it.InternBytes(scratch))), append(want, string(scratch))
	}
	it.Recycle()
	it = NewPooledInterner()
	for i := 0; i < 500; i++ {
		scratch = append(scratch[:0], "other"...)
		it.InternBytes(strconv.AppendInt(scratch, int64(i), 10))
		it.InternMessageKey(int64(i), "again"+strconv.Itoa(i))
	}
	it.Recycle()
	for i := range kept {
		if kept[i] != want[i] {
			t.Fatalf("key %d is %.40q after recycling its interner, want %.40q", i, kept[i], want[i])
		}
	}
}

// TestInternBytesAllocatesPerChunk pins the cost of a first sight: K
// fresh keys cost the chunks their bytes fill, not one string each,
// while a known key costs nothing.
func TestInternBytesAllocatesPerChunk(t *testing.T) {
	const k = 2000
	keys := make([][]byte, k)
	total := 0
	for i := range keys {
		keys[i] = []byte("abecho|3|" + strconv.Itoa(i) + "|vote|2|1")
		total += len(keys[i])
	}
	it := NewInterner()
	fresh := func() {
		it.Reset() // keeps the map and the key table's capacity
		for _, key := range keys {
			it.InternBytes(key)
		}
	}
	fresh()
	// The chunks double from firstChunk to maxChunk, then stay there.
	ceiling := float64(total/maxChunk + 1 + bits.Len(maxChunk/firstChunk))
	if allocs := testing.AllocsPerRun(10, fresh); allocs > ceiling {
		t.Fatalf("interning %d fresh keys (%d bytes) allocated %.0f times, want at most %.0f", k, total, allocs, ceiling)
	}
	if allocs := testing.AllocsPerRun(10, func() { it.InternBytes(keys[k/2]) }); allocs != 0 {
		t.Fatalf("interning a known key allocated %.0f times, want 0", allocs)
	}
}

// nestedLeaf and nestedEnvelope model a composed protocol: an envelope
// whose body is itself scratch-keyed, exercising KeyBuilder.Nested.
type nestedLeaf struct{ v hom.Value }

func (p nestedLeaf) BuildKey(kb *KeyBuilder) { kb.Reset("leaf").Value(p.v) }
func (p nestedLeaf) Key() string             { return ScratchKey(p) }

type nestedEnvelope struct {
	depth int
	body  Payload
}

func (p nestedEnvelope) BuildKey(kb *KeyBuilder) { kb.Reset("env").Int(p.depth).Nested(p.body) }
func (p nestedEnvelope) Key() string             { return ScratchKey(p) }

// TestNestedMatchesStrOfKey pins the Nested contract: for any payload,
// Nested(p) appends exactly the bytes Str(p.Key()) would — across
// scratch-keyed bodies, plain-Key bodies, and recursive envelopes —
// so switching an envelope's BuildKey to Nested can never change a
// canonical key.
func TestNestedMatchesStrOfKey(t *testing.T) {
	bodies := []Payload{
		Raw("plain|with|separators"),
		nestedLeaf{v: 7},
		nestedEnvelope{depth: 1, body: nestedLeaf{v: 3}},
		nestedEnvelope{depth: 2, body: nestedEnvelope{depth: 1, body: Raw(`esc\|aped`)}},
	}
	for _, body := range bodies {
		got := NewKey("outer").Int(9).Nested(body).String()
		want := NewKey("outer").Int(9).Str(body.Key()).String()
		if got != want {
			t.Fatalf("Nested diverged from Str(Key()) for %T:\n got  %q\n want %q", body, got, want)
		}
	}
}

// TestNestedScratchKeyedAllocationFree pins the satellite's point: a
// composed payload whose whole chain implements ScratchKeyer interns
// through Nested without any fallback key-string allocation once the
// key is known.
func TestNestedScratchKeyedAllocationFree(t *testing.T) {
	it := NewInterner()
	kb := NewKey("outer")
	p := nestedEnvelope{depth: 2, body: nestedEnvelope{depth: 1, body: nestedLeaf{v: 5}}}
	p.BuildKey(kb)
	kb.Intern(it)
	allocs := testing.AllocsPerRun(100, func() {
		p.BuildKey(kb)
		kb.Intern(it)
	})
	if allocs != 0 {
		t.Fatalf("nested scratch-keyed intern allocated %.1f times, want 0", allocs)
	}
}

// payloadKeyed is a payload whose key is the given string verbatim.
type payloadKeyed string

func (p payloadKeyed) Key() string { return string(p) }

// TestPayloadIDsNamePayloads pins what a PayloadID names: the payload
// part of an interned message key, whoever sent it. Every identifier's
// copy of one payload reads back one ID, different payloads read back
// different ones — dense, in first-stamp order, and apart from the
// KeyIDs: a payload whose key spells another message's key is still its
// own, and a message key interned as a plain key first still names its
// payload — through the plain inbox, a delta inbox's union (whose standing
// copies restamp carries) and its Delta. NewInbox's arena has none, keys
// that are no message key have none, and Reset restarts the numbering.
func TestPayloadIDsNamePayloads(t *testing.T) {
	const l = 5
	it := NewInterner()
	plain := it.Intern("no message key")
	it.Intern("id=4|raw|y") // a message key interned first as a plain key
	bodies := []Payload{Raw("x"), Raw("y"), payloadKeyed("id=1|raw|x")}
	arena, standing := &SendArena{}, &SendArena{}
	var idx []int32
	for _, body := range bodies {
		for id := hom.Identifier(1); id <= l; id++ {
			if id == l { // the last identifier's copy is a standing send
				kid, _ := it.InternMessageKey(int64(id), body.Key())
				standing.AppendStamped(it, id, body, kid, 1)
				continue
			}
			idx = append(idx, arena.Append(it, id, body, body.Key()))
		}
	}
	if it.payload(plain) != NoPayload || it.payload(NoKey) != NoPayload || it.payload(KeyID(it.Len()+1)) != NoPayload {
		t.Fatal("a key that is no interned message key has a PayloadID")
	}
	want := map[string]PayloadID{"raw|x": 1, "raw|y": 2, "id=1|raw|x": 3}
	check := func(label string, in *Inbox, n int) {
		t.Helper()
		if in.Len() != n {
			t.Fatalf("%s: %d messages, want %d", label, in.Len(), n)
		}
		for i := 0; i < in.Len(); i++ {
			if got, w := in.PayloadIDAt(i), want[in.BodyAt(i).Key()]; got != w {
				t.Fatalf("%s: %s from %d has PayloadID %d, want %d", label, in.BodyAt(i).Key(), in.SenderAt(i), got, w)
			}
		}
	}
	core := NewPooledGroupInbox(false, arena, idx)
	in := NewPooledInboxView(core, standing)
	check("delta", in.Delta(), len(bodies)*(l-1))
	check("union", in, len(bodies)*l)
	in.Recycle()
	core.Recycle()
	soa := NewPooledInboxSoA(true, arena, idx)
	check("soa", soa, len(bodies)*(l-1))
	soa.Recycle()

	loose := NewInbox(false, []Message{NewMessageInterned(it, 1, Raw("x")), NewMessageInterned(it, 2, Raw("x"))})
	for i := 0; i < loose.Len(); i++ {
		if loose.PayloadIDAt(i) != NoPayload {
			t.Fatalf("NewInbox position %d has PayloadID %d, want none", i, loose.PayloadIDAt(i))
		}
	}

	it.Reset()
	arena.Reset()
	arena.Append(it, 3, Raw("y"), Raw("y").Key())
	arena.Append(it, 1, Raw("x"), Raw("x").Key())
	if got := []PayloadID{arena.pids[0], arena.pids[1]}; got[0] != 1 || got[1] != 2 {
		t.Fatalf("PayloadIDs after Reset = %v, want [1 2]", got)
	}
}
