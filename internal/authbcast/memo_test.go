package authbcast

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// memoBody is a scratch-keyed broadcast body, so tuple keys nest a
// ScratchKeyer as the Figure-5 payloads do.
type memoBody struct{ V int }

func (b memoBody) BuildKey(kb *msg.KeyBuilder) { kb.Reset("memo").Int(b.V) }
func (b memoBody) Key() string                 { return msg.ScratchKey(b) }

// memoSend is one generated delivery: the sender identifier (not
// necessarily a valid one), the payload, and the payload's key — written
// out by hand for the payloads whose inner body is nil, which have no
// Key() to call.
type memoSend struct {
	from hom.Identifier
	body msg.Payload
	key  string
}

func newMemoSend(from hom.Identifier, body msg.Payload) memoSend {
	s := memoSend{from: from, body: body}
	switch p := body.(type) {
	case EchoPayload:
		if p.Body == nil {
			s.key = fmt.Sprintf("abecho|%d|%d|<nil>", p.SR, p.ID)
			return s
		}
	case InitPayload:
		if p.Body == nil {
			s.key = "abinit|<nil>"
			return s
		}
	}
	s.key = body.Key()
	return s
}

// genMemoTraffic draws `rounds` rounds of broadcast-layer traffic for a
// system of l identifiers: inits (the few bodies recur, so one body is
// initiated in several superrounds and under several identifiers), a
// growing pool of echoes — superround one behind to two ahead of the
// round that coins them, so some are in the future when first delivered
// and turn valid later; origin and sender identifiers from 0 to l+1, so
// both run invalid at the edges; a nil body now and then — each re-sent
// in every later round by a fresh random subset of senders, repeats
// included, plus payloads that are not the broadcast layer's at all. Every
// third round one echo nobody sent before arrives from every identifier,
// the invalid ones included, at once.
func genMemoTraffic(rng *rand.Rand, l, rounds int) [][]memoSend {
	bodies := []msg.Payload{msg.Raw("a"), msg.Raw("b"), memoBody{1}, memoBody{2}, nil}
	anyID := func() hom.Identifier { return hom.Identifier(rng.Intn(l + 2)) }
	var echoes []EchoPayload
	out := make([][]memoSend, rounds+1)
	for r := 1; r <= rounds; r++ {
		sr := hom.Superround(r)
		var sends []memoSend
		if hom.IsInitRound(r) {
			for i := rng.Intn(4); i > 0; i-- {
				sends = append(sends, newMemoSend(anyID(), InitPayload{Body: bodies[rng.Intn(len(bodies))]}))
			}
		} else if rng.Intn(2) == 0 {
			// An init outside an init round is ignored.
			sends = append(sends, newMemoSend(anyID(), InitPayload{Body: bodies[0]}))
		}
		for i := rng.Intn(4); i > 0; i-- {
			echoes = append(echoes, EchoPayload{
				Body: bodies[rng.Intn(len(bodies))],
				SR:   sr - 1 + rng.Intn(4),
				ID:   anyID(),
			})
		}
		for _, ep := range echoes {
			for i := rng.Intn(l + 3); i > 0; i-- {
				sends = append(sends, newMemoSend(anyID(), ep))
			}
		}
		if r%3 == 0 {
			burst := EchoPayload{Body: memoBody{100 + r}, SR: sr, ID: hom.Identifier(1 + rng.Intn(l))}
			for id := 0; id <= l+1; id++ {
				sends = append(sends, newMemoSend(hom.Identifier(id), burst))
			}
		}
		sends = append(sends, newMemoSend(anyID(), msg.Raw("noise")), newMemoSend(anyID(), memoBody{r}))
		rng.Shuffle(len(sends), func(i, j int) { sends[i], sends[j] = sends[j], sends[i] })
		out[r] = sends
	}
	return out
}

// observed renders what one Ingest/Outgoing step shows of a broadcaster.
func observed(b *Broadcaster, round int, accepts []Accept) string {
	s := fmt.Sprintf("round %d accepts:", round)
	for _, a := range accepts {
		s += fmt.Sprintf(" (%s,%d,%d)", a.Body.Key(), a.ID, a.SR)
	}
	s += " outgoing:"
	for _, p := range b.Outgoing(round + 1) {
		s += " " + newMemoSend(0, p.Body).key
	}
	return s + fmt.Sprintf(" unclaimed:%v tuples:%d fp:%x", b.Unclaimed(), b.TupleCount(), b.Fingerprint(msg.NewStateHash()))
}

// TestIngestPayloadMemoMatchesKeyPath holds the PayloadID memo to the
// path it memoises. The same generated traffic reaches four broadcasters:
// one through uninterned inboxes (NoPayload everywhere, so every message
// takes the payload-and-tuple-key path — the definition), one through the
// engine's interned SoA inboxes, one through shared GroupInbox views, and
// one that starts as a mid-run Clone of the second (its memo empty, its
// tuples not). After every round all four must have performed the same
// Accepts in the same order, owe the same Outgoing list, leave the same
// positions Unclaimed — on the key path, by definition, exactly the
// messages that are no countable echo — and fingerprint the same.
//
// An interned inbox iterates in KeyID order and an uninterned one in key
// order, so the test interns every message key up front, in key order:
// the two orders then coincide and first-sight tuple order with them.
//
// A new echo arriving from every identifier in one round checks that its
// first valid sight answers for the rest of the same pass, and that a hit
// still needs its sender to be an identifier.
//
// An echo's first sight interns its tuple under the payload part of the
// delivered message key; every tuple must be interned under the key the
// KeyBuilder builds for it, which is what an ⟨init⟩ and Clone intern.
func TestIngestPayloadMemoMatchesKeyPath(t *testing.T) {
	const l, tByz, rounds, cloneAt = 7, 2, 18, 9
	for seed := int64(1); seed <= 6; seed++ {
		traffic := genMemoTraffic(rand.New(rand.NewSource(seed)), l, rounds)

		it := msg.NewInterner()
		var all []memoSend
		for _, sends := range traffic {
			all = append(all, sends...)
		}
		sort.Slice(all, func(i, j int) bool {
			return msg.NewMessageKeyed(all[i].from, all[i].body, all[i].key).Key() <
				msg.NewMessageKeyed(all[j].from, all[j].body, all[j].key).Key()
		})
		for _, s := range all {
			it.InternMessageKey(int64(s.from), s.key)
		}

		keyPath, memo, shared := newBroadcaster(l, tByz), newBroadcaster(l, tByz), newBroadcaster(l, tByz)
		var cloned *Broadcaster
		arena := &msg.SendArena{}
		accepted, futureFirst := 0, 0
		for r := 1; r <= rounds; r++ {
			if r == cloneAt {
				cloned = memo.Clone()
			}
			arena.Reset()
			var plain []msg.Message
			var idx []int32
			for _, s := range traffic[r] {
				plain = append(plain, msg.NewMessageKeyed(s.from, s.body, s.key))
				idx = append(idx, arena.Append(it, s.from, s.body, s.key))
				if ep, ok := s.body.(EchoPayload); ok && ep.SR > hom.Superround(r) {
					futureFirst++
				}
			}

			in := msg.NewInbox(false, plain)
			want := keyPath.Ingest(r, in)
			accepted += len(want)
			rest := keyPath.Unclaimed()
			for i := 0; i < in.Len(); i++ {
				ep, ok := in.BodyAt(i).(EchoPayload)
				countable := ok && ep.Body != nil && ep.SR >= 1 && ep.SR <= hom.Superround(r) && ep.ID.IsValid(l) && in.SenderAt(i).IsValid(l)
				if unclaimed := len(rest) > 0 && int(rest[0]) == i; unclaimed == countable {
					t.Fatalf("seed %d round %d: position %d (countable echo: %v) is on the wrong side of Unclaimed %v", seed, r, i, countable, keyPath.Unclaimed())
				} else if unclaimed {
					rest = rest[1:]
				}
			}
			wantSeen := observed(keyPath, r, want)

			soa := msg.NewPooledInboxSoA(false, arena, idx)
			if got := observed(memo, r, memo.Ingest(r, soa)); got != wantSeen {
				t.Fatalf("seed %d: interned inbox diverged from the key path\n got %s\nwant %s", seed, got, wantSeen)
			}
			if cloned != nil {
				if got := observed(cloned, r, cloned.Ingest(r, soa)); got != wantSeen {
					t.Fatalf("seed %d: clone (made before round %d) diverged\n got %s\nwant %s", seed, cloneAt, got, wantSeen)
				}
			}
			soa.Recycle()

			core := msg.NewPooledGroupInbox(false, arena, idx)
			view := msg.NewPooledInboxView(core)
			if got := observed(shared, r, shared.Ingest(r, view)); got != wantSeen {
				t.Fatalf("seed %d: shared view diverged from the key path\n got %s\nwant %s", seed, got, wantSeen)
			}
			view.Recycle()
			core.Recycle()
		}
		if accepted == 0 || futureFirst == 0 || keyPath.TupleCount() < 10 {
			t.Fatalf("seed %d: traffic too thin to mean anything (%d accepts, %d future echoes, %d tuples)",
				seed, accepted, futureFirst, keyPath.TupleCount())
		}
		if len(memo.tab.memo) == 0 || len(keyPath.tab.memo) != 0 {
			t.Fatalf("seed %d: memo sizes %d (interned) / %d (uninterned): the interned run never used it, or the uninterned one did",
				seed, len(memo.tab.memo), len(keyPath.tab.memo))
		}
		for _, b := range []*Broadcaster{keyPath, memo, shared, cloned} {
			for i, ts := range b.tab.tuples {
				var kb msg.KeyBuilder
				if got, want := b.tab.keys.Key(msg.KeyID(i+1)), kb.Reset("abecho").Int(ts.sr).Identifier(ts.id).Nested(ts.body).String(); got != want {
					t.Fatalf("seed %d: tuple %d is interned as %q, its KeyBuilder key is %q", seed, i, got, want)
				}
			}
			b.Release()
			b.Release() // releasing twice is harmless
		}
	}
}

// TestOutgoingBoxesEachEchoOnce pins the allocation the boxed echoes
// removed: a round's standing echoes are re-sent without allocating.
func TestOutgoingBoxesEachEchoOnce(t *testing.T) {
	b := newBroadcaster(4, 1)
	defer b.Release()
	var raw []msg.Message
	for v := 0; v < 50; v++ {
		raw = append(raw, msg.Message{ID: 2, Body: InitPayload{Body: memoBody{v}}})
	}
	deliver(t, b, 1, raw)
	if got := len(b.Outgoing(2)); got != 50 {
		t.Fatalf("Outgoing(2) returned %d payloads, want 50 echoes", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Outgoing(2) }); allocs != 0 {
		t.Fatalf("re-sending 50 standing echoes allocated %.1f times, want 0", allocs)
	}
}

// TestStampMemosAreNeitherInheritedNorShared pins who owns a tuple's
// stamp memo: it lives with the tuple in the pooled table, so the next
// execution's broadcaster — handed the same table — must find it unowned
// (a KeyID of the previous execution's interner would otherwise answer
// for this one's), and a Clone re-sends from a table, and memos, of its
// own.
func TestStampMemosAreNeitherInheritedNorShared(t *testing.T) {
	it := msg.NewInterner()
	start := func(b *Broadcaster) *msg.StampMemo {
		deliver(t, b, 1, []msg.Message{{ID: 2, Body: InitPayload{Body: msg.Raw("m")}}})
		out := b.Outgoing(2)
		if len(out) != 1 || out[0].Memo == nil {
			t.Fatalf("Outgoing(2) = %v, want one standing echo with its memo", out)
		}
		return out[0].Memo
	}
	b := newBroadcaster(4, 1)
	memo := start(b)
	memo.Fill(it, 1, it.Intern("what the engine's first stamp interned"), 3)
	if _, _, ok := memo.Lookup(it, 1); !ok {
		t.Fatal("a filled memo does not answer for its interner and identifier")
	}
	if again := b.Outgoing(3)[0].Memo; again != memo {
		t.Fatal("a standing echo went out with a different memo in the next round")
	}

	cl := b.Clone()
	defer cl.Release()
	if cm := cl.Outgoing(2)[0].Memo; cm == memo {
		t.Fatal("a clone offers its original's memo")
	} else if _, _, ok := cm.Lookup(it, 1); ok {
		t.Fatal("a clone's memo was filled by its original's stamp")
	}

	tab := b.tab
	b.Release()
	nb := newBroadcaster(4, 1)
	defer nb.Release()
	if nb.tab != tab {
		t.Skip("the pool handed out another table (it drops items under the race detector)")
	}
	if _, _, ok := start(nb).Lookup(it, 1); ok {
		t.Fatal("a stamp memo survived its table's trip through the pool")
	}
}
