package msg

import (
	"strconv"
	"testing"

	"homonyms/internal/hom"
)

// broadcastRound builds the raw delivery slice a receiver sees in one
// all-to-all round of an n-process, l-identifier system: one message per
// sender slot, identifiers assigned round-robin, a handful of duplicate
// payloads (homonym groups broadcasting the same protocol message).
func broadcastRound(n, l int) []Message {
	raw := make([]Message, 0, n)
	for s := 0; s < n; s++ {
		id := hom.Identifier(s%l + 1)
		// Homonym group members send the same payload; distinct groups
		// differ, which exercises both the dedup and the insert path.
		raw = append(raw, Message{ID: id, Body: Raw("propose|" + strconv.Itoa(int(id)))})
	}
	return raw
}

func BenchmarkNewInbox(b *testing.B) {
	for _, size := range []struct{ n, l int }{{4, 4}, {16, 8}, {64, 16}} {
		raw := broadcastRound(size.n, size.l)
		b.Run(benchName(size.n, size.l, "innumerate"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewInbox(false, raw)
			}
		})
		b.Run(benchName(size.n, size.l, "numerate"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewInbox(true, raw)
			}
		})
	}
}

func BenchmarkInboxCount(b *testing.B) {
	raw := broadcastRound(64, 16)
	in := NewInbox(true, raw)
	ms := in.Messages()
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += in.Count(ms[i%len(ms)])
	}
	_ = total
}

func BenchmarkInboxCountCopies(b *testing.B) {
	raw := broadcastRound(64, 16)
	in := NewInbox(true, raw)
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += in.CountCopies(nil)
	}
	_ = total
}

func benchName(n, l int, kind string) string {
	return "n" + strconv.Itoa(n) + "_l" + strconv.Itoa(l) + "/" + kind
}

// TestCountAllocationFree pins the Inbox.Count fix: counting a message
// obtained from the inbox itself must not rebuild its key (the seed
// implementation concatenated strings on every call).
func TestCountAllocationFree(t *testing.T) {
	in := NewInbox(true, broadcastRound(64, 16))
	ms := in.Messages()
	allocs := testing.AllocsPerRun(100, func() {
		total := 0
		for _, m := range ms {
			total += in.Count(m)
		}
		if total == 0 {
			t.Fatal("empty count")
		}
	})
	if allocs != 0 {
		t.Fatalf("Inbox.Count allocated %.1f times per run, want 0", allocs)
	}
}

// TestCountCopiesAllocationFree covers the predicate-driven counting path
// used by the numerate algorithms every round.
func TestCountCopiesAllocationFree(t *testing.T) {
	in := NewInbox(true, broadcastRound(64, 16))
	pred := func(m Message) bool { return m.ID%2 == 1 }
	allocs := testing.AllocsPerRun(100, func() {
		if in.CountCopies(pred) == 0 {
			t.Fatal("empty count")
		}
		if in.CountCopies(nil) == 0 {
			t.Fatal("empty total")
		}
	})
	if allocs != 0 {
		t.Fatalf("Inbox.CountCopies allocated %.1f times per run, want 0", allocs)
	}
}
