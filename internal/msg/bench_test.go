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

func benchName(n, l int, kind string) string {
	return "n" + strconv.Itoa(n) + "_l" + strconv.Itoa(l) + "/" + kind
}

// TestCountAllocationFree pins the counting path of a receive loop:
// finding a message by identifier range and reading its count must not
// rebuild keys or build Message values.
func TestCountAllocationFree(t *testing.T) {
	in := NewInbox(true, broadcastRound(64, 16))
	allocs := testing.AllocsPerRun(100, func() {
		total := 0
		for id := hom.Identifier(1); id <= 16; id++ {
			lo, hi := in.IdentifierRange(id)
			for i := lo; i < hi; i++ {
				total += in.CountAt(i)
			}
		}
		if total == 0 {
			t.Fatal("empty count")
		}
	})
	if allocs != 0 {
		t.Fatalf("counting by identifier range allocated %.1f times per run, want 0", allocs)
	}
}

// TestCountCopiesAllocationFree covers the predicate-driven counting the
// numerate algorithms run every round: summing the copies of the
// messages whose sender and body match.
func TestCountCopiesAllocationFree(t *testing.T) {
	in := NewInbox(true, broadcastRound(64, 16))
	allocs := testing.AllocsPerRun(100, func() {
		copies := 0
		for i := 0; i < in.Len(); i++ {
			if in.SenderAt(i)%2 == 1 && in.BodyAt(i) != nil {
				copies += in.CountAt(i)
			}
		}
		if copies == 0 || in.TotalCount() == 0 {
			t.Fatal("empty count")
		}
	})
	if allocs != 0 {
		t.Fatalf("counting copies allocated %.1f times per run, want 0", allocs)
	}
}
