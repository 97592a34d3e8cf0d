package msg

import (
	"testing"
	"testing/quick"

	"homonyms/internal/hom"
)

// messages reads the inbox's distinct messages in its sorted order.
func messages(in *Inbox) []Message {
	out := make([]Message, in.Len())
	for i := range out {
		out[i] = in.MessageAt(i)
	}
	return out
}

// countOf finds m in the inbox by identifier and canonical key and
// returns its multiplicity: 0 when it was never received.
func countOf(in *Inbox, m Message) int {
	lo, hi := in.IdentifierRange(m.ID)
	for i := lo; i < hi; i++ {
		if in.MessageAt(i).Key() == m.Key() {
			return in.CountAt(i)
		}
	}
	return 0
}

func TestInboxInnumerateDeduplicates(t *testing.T) {
	raw := []Message{
		{ID: 2, Body: Raw("x")},
		{ID: 1, Body: Raw("x")},
		{ID: 2, Body: Raw("x")}, // duplicate of first
		{ID: 2, Body: Raw("y")},
	}
	in := NewInbox(false, raw)
	if in.Numerate() {
		t.Fatal("inbox reports numerate")
	}
	if in.Len() != 3 {
		t.Fatalf("Len = %d, want 3 distinct", in.Len())
	}
	// Sorted by (id, key): (1,x), (2,x), (2,y).
	ms := messages(in)
	if ms[0].ID != 1 || ms[1].ID != 2 || ms[2].ID != 2 {
		t.Fatalf("unexpected order: %v", ms)
	}
	if got := countOf(in, Message{ID: 2, Body: Raw("x")}); got != 1 {
		t.Fatalf("innumerate count = %d, want 1", got)
	}
	if got := in.TotalCount(); got != 3 {
		t.Fatalf("TotalCount = %d, want 3", got)
	}
}

func TestInboxNumerateCounts(t *testing.T) {
	raw := []Message{
		{ID: 2, Body: Raw("x")},
		{ID: 2, Body: Raw("x")},
		{ID: 2, Body: Raw("x")},
		{ID: 1, Body: Raw("x")},
	}
	in := NewInbox(true, raw)
	if !in.Numerate() {
		t.Fatal("inbox reports innumerate")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2 distinct", in.Len())
	}
	if got := countOf(in, Message{ID: 2, Body: Raw("x")}); got != 3 {
		t.Fatalf("numerate count = %d, want 3", got)
	}
	if got := countOf(in, Message{ID: 1, Body: Raw("x")}); got != 1 {
		t.Fatalf("numerate count = %d, want 1", got)
	}
	if got := countOf(in, Message{ID: 3, Body: Raw("x")}); got != 0 {
		t.Fatalf("count of absent message = %d, want 0", got)
	}
	if got := in.TotalCount(); got != 4 {
		t.Fatalf("TotalCount = %d, want 4", got)
	}
}

func TestInboxIdentifierHelpers(t *testing.T) {
	raw := []Message{
		{ID: 1, Body: Raw("a")},
		{ID: 2, Body: Raw("a")},
		{ID: 2, Body: Raw("b")},
		{ID: 4, Body: Raw("b")},
	}
	in := NewInbox(false, raw)
	for id, want := range []struct{ lo, hi int }{{0, 0}, {0, 1}, {1, 3}, {3, 3}, {3, 4}, {4, 4}} {
		if lo, hi := in.IdentifierRange(hom.Identifier(id)); lo != want.lo || hi != want.hi {
			t.Fatalf("IdentifierRange(%d) = [%d,%d), want [%d,%d)", id, lo, hi, want.lo, want.hi)
		}
	}
	if lo, hi := in.IdentifierRange(2); in.BodyAt(lo) != Raw("a") || in.BodyAt(hi-1) != Raw("b") {
		t.Fatal("IdentifierRange(2) does not hold identifier 2's messages in key order")
	}
}

func TestInboxDeterministicOrder(t *testing.T) {
	// Property: inbox order is independent of raw delivery order.
	check := func(perm []uint8) bool {
		base := []Message{
			{ID: 3, Body: Raw("m1")},
			{ID: 1, Body: Raw("m2")},
			{ID: 2, Body: Raw("m1")},
			{ID: 1, Body: Raw("m1")},
			{ID: 2, Body: Raw("m2")},
		}
		shuffled := make([]Message, 0, len(base))
		used := make([]bool, len(base))
		for _, p := range perm {
			if len(shuffled) == len(base) {
				break
			}
			i := int(p) % len(base)
			for used[i] {
				i = (i + 1) % len(base)
			}
			used[i] = true
			shuffled = append(shuffled, base[i])
		}
		for i, u := range used {
			if !u {
				shuffled = append(shuffled, base[i])
			}
		}
		a := NewInbox(false, base)
		b := NewInbox(false, shuffled)
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if a.MessageAt(i).Key() != b.MessageAt(i).Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNumerateCountInvariant(t *testing.T) {
	// Property: for a numerate inbox, TotalCount equals the raw message
	// count, and each CountAt is at least 1.
	check := func(ids []uint8) bool {
		raw := make([]Message, 0, len(ids))
		for _, r := range ids {
			raw = append(raw, Message{ID: hom.Identifier(r%4 + 1), Body: Raw(string(rune('a' + r%3)))})
		}
		in := NewInbox(true, raw)
		if in.TotalCount() != len(raw) {
			return false
		}
		sum := 0
		for i := 0; i < in.Len(); i++ {
			c := in.CountAt(i)
			if c < 1 {
				return false
			}
			sum += c
		}
		return sum == len(raw)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyBuilder(t *testing.T) {
	k := NewKey("vote").Int(7).Value(hom.NoValue).Value(3).Identifier(2).Str("x").String()
	want := "vote|7|_|3|2|x"
	if k != want {
		t.Fatalf("KeyBuilder = %q, want %q", k, want)
	}
	var vs hom.ValueSet
	vs.Add(1)
	vs.Add(0)
	k2 := NewKey("propose").Values(vs).Int(0).String()
	if k2 != "propose|{0,1}|0" {
		t.Fatalf("KeyBuilder values = %q", k2)
	}
	// A protocol renders a set into its scratch builder for every tuple
	// it looks up: once the buffer has grown, that must not allocate.
	kb := NewKey("propose")
	if allocs := testing.AllocsPerRun(100, func() { kb.Reset("propose").Values(vs).Int(0) }); allocs != 0 {
		t.Fatalf("KeyBuilder.Values allocates %v times per key, want 0", allocs)
	}
}

func TestMessageKeyIncludesIdentifier(t *testing.T) {
	a := Message{ID: 1, Body: Raw("z")}
	b := Message{ID: 2, Body: Raw("z")}
	if a.Key() == b.Key() {
		t.Fatal("messages from different identifiers must have different keys")
	}
}

func TestSendConstructors(t *testing.T) {
	b := Broadcast(Raw("m"))
	if b.Kind != ToAll || b.Body.Key() != Raw("m").Key() {
		t.Fatalf("Broadcast built %+v", b)
	}
	s := SendTo(3, Raw("m"))
	if s.Kind != ToIdentifier || s.To != 3 {
		t.Fatalf("SendTo built %+v", s)
	}
}
