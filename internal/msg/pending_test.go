package msg

import "testing"

func pe(from, to, sent, due int32, body string) PendingEntry {
	return PendingEntry{From: from, To: to, Body: Raw(body), SentRound: sent, Due: due}
}

// TestPendingQueueFIFOAmongEqualDue: entries sharing a due round drain
// in their hold (routing) order — the property that keeps the engine
// byte-identical to per-message delivery under timing faults.
func TestPendingQueueFIFOAmongEqualDue(t *testing.T) {
	var q PendingQueue
	q.Hold(pe(2, 0, 1, 3, "a"))
	q.Hold(pe(0, 1, 1, 3, "b"))
	q.Hold(pe(1, 2, 1, 3, "c"))
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i, want := range []string{"a", "b", "c"} {
		if got := q.At(i).Body.Key(); got != Raw(want).Key() {
			t.Fatalf("entry %d = %q, want %q (hold order not preserved)", i, got, want)
		}
	}
}

// TestPendingQueueDropPreservesSurvivorOrder: draining a round removes
// exactly the entries due at or before it and keeps the rest in order —
// including an entry held later but due earlier than a survivor.
func TestPendingQueueDropPreservesSurvivorOrder(t *testing.T) {
	var q PendingQueue
	q.Hold(pe(0, 1, 1, 5, "late"))
	q.Hold(pe(1, 0, 1, 2, "early"))
	q.Hold(pe(2, 0, 1, 4, "mid"))
	q.Drop(2)
	if q.Len() != 2 {
		t.Fatalf("after Drop(2): Len = %d, want 2", q.Len())
	}
	if q.At(0).Body.Key() != Raw("late").Key() || q.At(1).Body.Key() != Raw("mid").Key() {
		t.Fatalf("survivor order broken: %q, %q", q.At(0).Body.Key(), q.At(1).Body.Key())
	}
	q.Drop(5)
	if q.Len() != 0 {
		t.Fatalf("after Drop(5): Len = %d, want 0", q.Len())
	}
}

// TestPendingQueueStallPush: a stall re-stamps a live entry's Due in
// place (the engine pushes held deliveries back when the fault window
// extends); the entry must survive drains up to its new due round
// without changing its position.
func TestPendingQueueStallPush(t *testing.T) {
	var q PendingQueue
	q.Hold(pe(0, 1, 1, 2, "a"))
	q.Hold(pe(1, 0, 1, 2, "b"))
	q.At(0).Due = 4 // stall pushes the first delivery two rounds
	q.Drop(2)
	if q.Len() != 1 {
		t.Fatalf("after stall + Drop(2): Len = %d, want 1", q.Len())
	}
	if q.At(0).Body.Key() != Raw("a").Key() || q.At(0).Due != 4 {
		t.Fatalf("stalled entry = %+v", *q.At(0))
	}
}

// TestPendingQueueRetryRestamp: retransmit bookkeeping mutates NextRetry
// and Attempt through At without disturbing order or the other fields.
func TestPendingQueueRetryRestamp(t *testing.T) {
	var q PendingQueue
	q.Hold(pe(0, 1, 1, 9, "a"))
	q.Hold(pe(0, 2, 1, 9, "b"))
	e := q.At(1)
	e.NextRetry = 3
	e.Attempt = 1
	e = q.At(1)
	e.NextRetry = 5 // backoff doubles the next window
	e.Attempt = 2
	if got := q.At(1); got.NextRetry != 5 || got.Attempt != 2 || got.SentRound != 1 {
		t.Fatalf("re-stamped entry = %+v", *got)
	}
	if got := q.At(0); got.NextRetry != 0 || got.Attempt != 0 {
		t.Fatalf("neighbour entry mutated: %+v", *got)
	}
}

func TestPendingQueueReset(t *testing.T) {
	var q PendingQueue
	q.Hold(pe(0, 1, 1, 2, "a"))
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	q.Hold(pe(1, 0, 3, 4, "b"))
	if q.Len() != 1 || q.At(0).Body.Key() != Raw("b").Key() {
		t.Fatal("queue unusable after Reset")
	}
}

// TestStateHashDeliveryStable: a message folds by its canonical key,
// never by its interner KeyID — the same message interned after a
// different prefix hashes the same — and length-prefixed strings cannot
// alias across boundaries.
func TestStateHashDeliveryStable(t *testing.T) {
	early, late := NewInterner(), NewInterner()
	late.Intern("something else first")
	a := NewMessageInterned(early, 2, Raw("x"))
	b := NewMessageInterned(late, 2, Raw("x"))
	if a.KeyID() == b.KeyID() {
		t.Fatal("fixture: the two interners should issue different KeyIDs")
	}
	if NewStateHash().String(a.Key()) != NewStateHash().String(b.Key()) {
		t.Fatal("identical messages hashed differently")
	}
	if NewStateHash().String(Message{ID: 1, Body: Raw("x")}.Key()) == NewStateHash().String(a.Key()) {
		t.Fatal("identifier not folded")
	}
	if NewStateHash().String("ab").String("c") == NewStateHash().String("a").String("bc") {
		t.Fatal("string folds alias across boundaries")
	}
	if NewStateHash().Bool(true) == NewStateHash().Bool(false) {
		t.Fatal("bool fold degenerate")
	}
}
