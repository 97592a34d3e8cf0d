package msg

import (
	"testing"

	"homonyms/internal/hom"
)

// TestGroupInboxViewMatchesOwnFill pins the view contract: an inbox view
// over a shared GroupInbox is observationally identical to a
// per-recipient SoA inbox over the same delivery index, through every
// public accessor, in both reception semantics.
func TestGroupInboxViewMatchesOwnFill(t *testing.T) {
	for _, numerate := range []bool{false, true} {
		it := NewInterner()
		soa, idx := buildSoAArena(it, 24, 5)

		own := NewPooledInboxSoA(numerate, soa, idx)
		gi := NewPooledGroupInbox(numerate, soa, idx)
		v1 := NewPooledInboxView(gi)
		v2 := NewPooledInboxView(gi)

		for _, view := range []*Inbox{v1, v2} {
			if view.Numerate() != own.Numerate() {
				t.Fatalf("numerate=%v: view Numerate %v", numerate, view.Numerate())
			}
			if view.Len() != own.Len() || view.TotalCount() != own.TotalCount() {
				t.Fatalf("numerate=%v: view len/total %d/%d, want %d/%d",
					numerate, view.Len(), view.TotalCount(), own.Len(), own.TotalCount())
			}
			for i := 0; i < own.Len(); i++ {
				if view.SenderAt(i) != own.SenderAt(i) {
					t.Fatalf("SenderAt(%d): %v != %v", i, view.SenderAt(i), own.SenderAt(i))
				}
				if view.BodyAt(i) != own.BodyAt(i) {
					t.Fatalf("BodyAt(%d) diverges", i)
				}
				if view.CountAt(i) != own.CountAt(i) {
					t.Fatalf("CountAt(%d): %d != %d", i, view.CountAt(i), own.CountAt(i))
				}
				m := own.MessageAt(i)
				if view.MessageAt(i) != m {
					t.Fatalf("MessageAt(%d) diverges", i)
				}
			}
			for id := hom.Identifier(1); id <= 5; id++ {
				lo1, hi1 := view.IdentifierRange(id)
				lo2, hi2 := own.IdentifierRange(id)
				if lo1 != lo2 || hi1 != hi2 {
					t.Fatalf("IdentifierRange(%d): [%d,%d) != [%d,%d)", id, lo1, hi1, lo2, hi2)
				}
			}
		}

		v1.Recycle()
		v2.Recycle()
		gi.Recycle()
		own.Recycle()
	}
}

// TestGroupInboxReleaseZeroesCounts pins the ownership/pool invariant:
// recycling views leaves the shared core readable, and the core's own
// Recycle zeroes its dense count array, so a recycled core never leaks
// multiplicities into the next round's fill.
func TestGroupInboxReleaseZeroesCounts(t *testing.T) {
	it := NewInterner()
	soa, idx := buildSoAArena(it, 12, 3)

	gi := NewPooledGroupInbox(true, soa, idx)
	views := []*Inbox{NewPooledInboxView(gi), NewPooledInboxView(gi), NewPooledInboxView(gi)}
	wantTotal := views[0].TotalCount()

	// Views own nothing of the core: recycling them keeps it readable.
	views[0].Recycle()
	views[1].Recycle()
	views[2].Recycle()
	if got := gi.TotalCount(); got != wantTotal {
		t.Fatalf("core died with its views: total %d, want %d", got, wantTotal)
	}
	gi.Recycle()

	// A fresh core over the same arena must compute the same counts from
	// scratch: any stale count left by Recycle would inflate them.
	gi2 := NewPooledGroupInbox(true, soa, idx)
	v := NewPooledInboxView(gi2)
	if v.TotalCount() != wantTotal {
		t.Fatalf("stale counts after Recycle: total %d, want %d", v.TotalCount(), wantTotal)
	}
	for i := 0; i < v.Len(); i++ {
		if c := v.CountAt(i); c < 1 || c > len(idx) {
			t.Fatalf("implausible count %d at %d", c, i)
		}
	}
	v.Recycle()
	gi2.Recycle()
}

// TestGroupInboxSteadyStateZeroAlloc pins the pooling contract: after
// warm-up, a fill-views-read-recycle round trip allocates nothing.
// sync.Pool drops items under the race detector, so the assertion only
// holds without it.
func TestGroupInboxSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	it := NewInterner()
	soa, idx := buildSoAArena(it, 32, 4)

	roundTrip := func() {
		gi := NewPooledGroupInbox(true, soa, idx)
		v1, v2 := NewPooledInboxView(gi), NewPooledInboxView(gi)
		sink := 0
		for i, k := 0, v1.Len(); i < k; i++ {
			sink += int(v1.SenderAt(i)) + v2.CountAt(i)
		}
		_ = sink
		v1.Recycle()
		v2.Recycle()
		gi.Recycle()
	}
	roundTrip() // warm the pools
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("steady-state group fill allocates %.1f per round, want 0", allocs)
	}
}
