package msg

import (
	"testing"
	"testing/quick"

	"homonyms/internal/hom"
)

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
	ms := in.Messages()
	if ms[0].ID != 1 || ms[1].ID != 2 || ms[2].ID != 2 {
		t.Fatalf("unexpected order: %v", ms)
	}
	if got := in.Count(Message{ID: 2, Body: Raw("x")}); got != 1 {
		t.Fatalf("innumerate Count = %d, want 1", got)
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
	if got := in.Count(Message{ID: 2, Body: Raw("x")}); got != 3 {
		t.Fatalf("numerate Count = %d, want 3", got)
	}
	if got := in.Count(Message{ID: 1, Body: Raw("x")}); got != 1 {
		t.Fatalf("numerate Count = %d, want 1", got)
	}
	if got := in.Count(Message{ID: 3, Body: Raw("x")}); got != 0 {
		t.Fatalf("Count of absent message = %d, want 0", got)
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
	ids := in.DistinctIdentifiers(nil)
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 4 {
		t.Fatalf("DistinctIdentifiers = %v, want [1 2 4]", ids)
	}
	onlyB := func(m Message) bool { return m.Body.Key() == Raw("b").Key() }
	if got := in.CountDistinctIdentifiers(onlyB); got != 2 {
		t.Fatalf("CountDistinctIdentifiers(b) = %d, want 2", got)
	}
	from2 := in.FromIdentifier(2)
	if len(from2) != 2 {
		t.Fatalf("FromIdentifier(2) returned %d messages, want 2", len(from2))
	}
	if got := in.CountCopies(onlyB); got != 2 {
		t.Fatalf("CountCopies(b) = %d, want 2", got)
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
		for i := range a.Messages() {
			if a.Messages()[i].Key() != b.Messages()[i].Key() {
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
	// count, and each Count is at least 1 for present messages.
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
		for _, m := range in.Messages() {
			c := in.Count(m)
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
