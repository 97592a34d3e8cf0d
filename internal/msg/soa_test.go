package msg

import (
	"strconv"
	"testing"

	"homonyms/internal/hom"
)

// buildSoAArena stamps a deterministic broadcast round into a fresh SoA
// arena: n sends over l identifiers with some duplicate payloads, so the
// inbox sees both dedup and multiplicity.
func buildSoAArena(it *Interner, n, l int) (*SendArena, []int32) {
	arena := &SendArena{}
	idx := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		id := hom.Identifier(s%l + 1)
		body := Raw("propose|" + strconv.Itoa(int(id)))
		idx = append(idx, arena.Append(it, id, body, body.Key()))
	}
	return arena, idx
}

// TestSoAInboxMatchesIndexed pins the SoA fill against NewInbox over the
// same messages, which restamps them into an arena of its own: same
// distinct set, same sorted order, same counts, same totals, in both
// reception semantics.
func TestSoAInboxMatchesIndexed(t *testing.T) {
	for _, numerate := range []bool{false, true} {
		it := NewInterner()
		soa, idx := buildSoAArena(it, 16, 5)
		aos := make([]Message, soa.Len())
		for i := range aos {
			aos[i] = soa.Message(int32(i))
		}

		soaIn := NewPooledInboxSoA(numerate, soa, idx)
		aosIn := NewInbox(numerate, aos)

		if soaIn.Len() != aosIn.Len() || soaIn.TotalCount() != aosIn.TotalCount() {
			t.Fatalf("numerate=%v: len/total %d/%d, want %d/%d",
				numerate, soaIn.Len(), soaIn.TotalCount(), aosIn.Len(), aosIn.TotalCount())
		}
		for i := 0; i < soaIn.Len(); i++ {
			if soaIn.SenderAt(i) != aosIn.SenderAt(i) {
				t.Fatalf("numerate=%v: sender %d mismatch: %d vs %d", numerate, i, soaIn.SenderAt(i), aosIn.SenderAt(i))
			}
			if soaIn.CountAt(i) != aosIn.CountAt(i) {
				t.Fatalf("numerate=%v: count %d mismatch: %d vs %d", numerate, i, soaIn.CountAt(i), aosIn.CountAt(i))
			}
			if soaIn.BodyAt(i).Key() != aosIn.BodyAt(i).Key() {
				t.Fatalf("numerate=%v: body %d mismatch", numerate, i)
			}
			if sm, am := soaIn.MessageAt(i), aosIn.MessageAt(i); sm != am {
				t.Fatalf("numerate=%v: message %d mismatch: %+v vs %+v", numerate, i, sm, am)
			}
		}
		sms, ams := soaIn.Messages(), aosIn.Messages()
		for i := range sms {
			if sms[i] != ams[i] {
				t.Fatalf("numerate=%v: sorted view %d mismatch", numerate, i)
			}
		}
		soaIn.Recycle()
	}
}

// TestSoAIndexedAccessors pins the indexed iteration contract on the SoA
// path: sorted order, identifier ranges and per-position counts agree
// with the materialised view.
func TestSoAIndexedAccessors(t *testing.T) {
	it := NewInterner()
	soa, idx := buildSoAArena(it, 12, 3)
	in := NewPooledInboxSoA(true, soa, idx)
	defer in.Recycle()

	view := in.Messages()
	if len(view) != in.Len() {
		t.Fatalf("view length %d, want %d", len(view), in.Len())
	}
	for i, m := range view {
		if in.SenderAt(i) != m.ID || in.BodyAt(i) != m.Body || in.CountAt(i) != in.Count(m) {
			t.Fatalf("indexed accessors diverge from view at %d", i)
		}
	}
	for id := hom.Identifier(1); id <= 4; id++ {
		lo, hi := in.IdentifierRange(id)
		want := in.FromIdentifier(id)
		if hi-lo != len(want) {
			t.Fatalf("id %d: range width %d, want %d", id, hi-lo, len(want))
		}
		for i := lo; i < hi; i++ {
			if in.SenderAt(i) != id {
				t.Fatalf("id %d: position %d has sender %d", id, i, in.SenderAt(i))
			}
		}
	}
}

// TestSoAInboxZeroAlloc pins the acceptance criterion: the SoA inbox
// fill — including the sort index and an indexed iteration — allocates
// nothing at steady state.
func TestSoAInboxZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; zero-alloc only holds in normal builds")
	}
	it := NewInterner()
	soa, idx := buildSoAArena(it, 16, 8)
	// Warm the pool, the dense count array and the sort index buffer.
	NewPooledInboxSoA(true, soa, idx).Recycle()
	allocs := testing.AllocsPerRun(200, func() {
		in := NewPooledInboxSoA(true, soa, idx)
		if in.Len() == 0 {
			t.Fatal("empty inbox")
		}
		total := 0
		for i, k := 0, in.Len(); i < k; i++ {
			if in.SenderAt(i) == 0 {
				t.Fatal("bad sender")
			}
			total += in.CountAt(i)
		}
		if total != in.TotalCount() {
			t.Fatal("count mismatch")
		}
		in.Recycle()
	})
	if allocs != 0 {
		t.Fatalf("SoA pooled inbox path allocated %.1f times per round, want 0", allocs)
	}
}

// TestSendArenaReset pins the arena recycling contract: Reset keeps
// capacity, drops references and restarts indices at zero.
func TestSendArenaReset(t *testing.T) {
	it := NewInterner()
	arena := &SendArena{}
	body := Raw("x")
	si := arena.Append(it, 1, body, body.Key())
	if si != 0 || arena.Len() != 1 {
		t.Fatalf("first append: index %d len %d", si, arena.Len())
	}
	if arena.ID(si) != 1 || arena.KID(si) == NoKey || arena.Body(si) != body {
		t.Fatalf("columns wrong: id=%d kid=%d", arena.ID(si), arena.KID(si))
	}
	arena.Reset()
	if arena.Len() != 0 {
		t.Fatalf("len after reset = %d", arena.Len())
	}
	si = arena.Append(it, 2, body, body.Key())
	if si != 0 || arena.ID(si) != 2 {
		t.Fatalf("append after reset: index %d id %d", si, arena.ID(si))
	}
}

// BenchmarkSoAInboxBuild measures the engines' per-recipient fill: a
// 64-delivery batch deduped and counted through the KeyID column alone.
func BenchmarkSoAInboxBuild(b *testing.B) {
	it := NewInterner()
	soa, idx := buildSoAArena(it, 64, 16)
	NewPooledInboxSoA(true, soa, idx).Recycle()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := NewPooledInboxSoA(true, soa, idx)
		if in.Len() == 0 {
			b.Fatal("empty")
		}
		in.Recycle()
	}
}

// BenchmarkSoAInboxIndexedScan measures a full protocol-style receive
// loop over the indexed accessors (no []Message view).
func BenchmarkSoAInboxIndexedScan(b *testing.B) {
	it := NewInterner()
	soa, idx := buildSoAArena(it, 64, 16)
	in := NewPooledInboxSoA(true, soa, idx)
	defer in.Recycle()
	b.ReportAllocs()
	total := 0
	for i := 0; i < b.N; i++ {
		for j, k := 0, in.Len(); j < k; j++ {
			if in.SenderAt(j) != 0 {
				total += in.CountAt(j)
			}
		}
	}
	_ = total
}
