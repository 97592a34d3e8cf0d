package msg

import (
	"strconv"
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
		for _, m := range b.Messages() {
			if a.Count(m) != b.Count(m) {
				t.Fatalf("numerate=%v: count of %q diverges: %d vs %d",
					numerate, m.Key(), a.Count(m), b.Count(m))
			}
		}
		for _, m := range a.Messages() {
			if a.Count(m) != b.Count(Message{ID: m.ID, Body: m.Body}) {
				t.Fatalf("interned count lookup diverges for %q", m.Key())
			}
		}
		if got, want := a.CountDistinctIdentifiers(nil), b.CountDistinctIdentifiers(nil); got != want {
			t.Fatalf("distinct identifiers diverge: %d vs %d", got, want)
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
		if in.Messages()[0] != raw[0] {
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
	if got := in.Count(arena.Message(1)); got != 2 {
		t.Fatalf("Count(y) = %d, want 2", got)
	}
	if got := in.Count(arena.Message(2)); got != 0 {
		t.Fatalf("Count(z) = %d, want 0 (dropped)", got)
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
