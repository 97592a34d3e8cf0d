package msg

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"homonyms/internal/hom"
)

// orderCase is one generated delivery batch: the raw messages in arrival
// order, interned or not. Interned batches also sit in a SendArena, whose
// entry i is raw[i].
type orderCase struct {
	name     string
	interned bool
	raw      []Message
	arena    *SendArena
}

// genOrderCase draws k deliveries over the given identifiers with
// payloads from a pool of `bodies` distinct ones per identifier, so the
// batch carries duplicates to collapse. An "uninterned" batch is all
// literal messages, a "mixed" one alternates interned and literal ones,
// and any other is interned. Interning happens in a shuffled order,
// which decouples KeyID order from both arrival order and key-string
// order.
func genOrderCase(rng *rand.Rand, name string, k, bodies int, ids []hom.Identifier) orderCase {
	var pool []Message
	for _, id := range ids {
		for b := 0; b < bodies; b++ {
			pool = append(pool, Message{ID: id, Body: Raw("m" + strconv.Itoa(rng.Intn(1000)) + "." + strconv.Itoa(b))})
		}
	}
	c := orderCase{name: name, interned: name != "uninterned" && name != "mixed"}
	if name == "uninterned" {
		for j := 0; j < k; j++ {
			m := pool[rng.Intn(len(pool))]
			if j%2 == 0 {
				m = NewMessage(m.ID, m.Body) // key cached; the literal computes it on demand
			}
			c.raw = append(c.raw, m)
		}
		return c
	}
	it := NewInterner()
	for _, i := range rng.Perm(len(pool)) {
		it.InternMessageKey(int64(pool[i].ID), pool[i].Body.Key())
	}
	c.arena = &SendArena{}
	for j := 0; j < k; j++ {
		m := pool[rng.Intn(len(pool))]
		if name == "mixed" && j%2 == 0 {
			c.raw = append(c.raw, m)
			continue
		}
		c.raw = append(c.raw, c.arena.Message(c.arena.Append(it, m.ID, m.Body, m.Body.Key())))
	}
	return c
}

// referenceOrder is the definition the inbox order is held to: the
// distinct messages of raw under sort.Slice on (identifier, KeyID) when
// every message is interned, on (identifier, canonical key) otherwise.
func referenceOrder(c orderCase) []Message {
	seen := map[string]bool{}
	var distinct []Message
	for _, m := range c.raw {
		if !seen[m.Key()] {
			seen[m.Key()] = true
			distinct = append(distinct, m)
		}
	}
	sort.Slice(distinct, func(a, b int) bool {
		x, y := distinct[a], distinct[b]
		if x.ID != y.ID {
			return x.ID < y.ID
		}
		if c.interned {
			return x.KeyID() < y.KeyID()
		}
		return x.Key() < y.Key()
	})
	return distinct
}

// checkOrder holds one inbox to the reference through every accessor
// that exposes the order, including the KeyID column.
func checkOrder(t *testing.T, label string, in *Inbox, c orderCase, want []Message) {
	t.Helper()
	if in.Len() != len(want) {
		t.Fatalf("%s/%s: %d distinct messages, want %d", c.name, label, in.Len(), len(want))
	}
	for i, w := range want {
		if got := in.MessageAt(i); got.Key() != w.Key() || got.ID != w.ID {
			t.Fatalf("%s/%s: position %d holds %q, reference order has %q", c.name, label, i, got.Key(), w.Key())
		}
		if in.SenderAt(i) != w.ID || in.BodyAt(i).Key() != w.Body.Key() {
			t.Fatalf("%s/%s: SenderAt/BodyAt(%d) disagree with MessageAt", c.name, label, i)
		}
		wantKid := NoKey
		if c.interned {
			wantKid = w.KeyID()
		}
		if got := in.MessageAt(i).KeyID(); got != wantKid {
			t.Fatalf("%s/%s: MessageAt(%d).KeyID() = %d, want %d", c.name, label, i, got, wantKid)
		}
	}
}

// TestSortIndexMatchesReferenceOrder pins the inbox order — the order
// protocols first see messages in, and so the order of everything
// downstream of it — to its definition, over generated batches and every
// way an inbox's core is filled: NewInbox (keeping KeyIDs, or ranked for
// literal and mixed batches), the SoA arena (entries of one copy and of
// several) and the shared GroupInbox view.
// Batches straddle the packed sort's stack/pool boundary, and the wide
// cases spread identifiers too far to pack, forcing the comparison sort.
func TestSortIndexMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	small := []hom.Identifier{1, 2, 3, 4, 5}
	signed := []hom.Identifier{-7, -1, 0, 3, 1 << 20}
	wide := []hom.Identifier{math.MinInt64, -1, 0, 7, math.MaxInt64}
	var cases []orderCase
	for round := 0; round < 40; round++ {
		k := []int{0, 1, 2, 7, orderStack, orderStack + 1, 100, 700}[round%8]
		cases = append(cases,
			genOrderCase(rng, "small", k, 1+rng.Intn(40), small),
			genOrderCase(rng, "signed", k, 1+rng.Intn(12), signed),
			genOrderCase(rng, "wide", k, 1+rng.Intn(12), wide),
			genOrderCase(rng, "uninterned", k, 1+rng.Intn(12), signed),
			genOrderCase(rng, "mixed", k, 1+rng.Intn(12), signed),
		)
	}
	for _, c := range cases {
		want := referenceOrder(c)
		for _, numerate := range []bool{false, true} {
			checkOrder(t, "new", NewInbox(numerate, c.raw), c, want)

			if !c.interned || len(c.raw) == 0 {
				continue
			}
			idx := make([]int32, len(c.raw))
			for i := range idx {
				idx[i] = int32(i)
			}
			soa := NewPooledInboxSoA(numerate, c.arena, idx)
			checkOrder(t, "soa", soa, c, want)
			soa.Recycle()

			// The same batch with multiplicities: counts change, the
			// distinct set and its order do not.
			for i := range c.arena.copies {
				c.arena.copies[i] = int32(1 + i%3)
			}
			weighted := NewPooledInboxSoA(numerate, c.arena, idx)
			checkOrder(t, "weighted", weighted, c, want)
			weighted.Recycle()
			for i := range c.arena.copies {
				c.arena.copies[i] = 1
			}

			core := NewPooledGroupInbox(numerate, c.arena, idx)
			if core.Len() != len(want) || core.TotalCount() <= 0 {
				t.Fatalf("%s: shared core holds %d distinct / %d copies", c.name, core.Len(), core.TotalCount())
			}
			v1, v2 := NewPooledInboxView(core), NewPooledInboxView(core)
			checkOrder(t, "group-view", v1, c, want)
			checkOrder(t, "group-view-2", v2, c, want)
			v1.Recycle()
			v2.Recycle()
			core.Recycle()
		}
	}
}

// TestRoundOrderWalkMatchesOrderRefs is the one-order-per-round property:
// the permutation an inbox derives by walking the arena's round order
// (orderByWalk) is the one its own sort (orderRefs) produces, for Inbox
// and GroupInbox alike, whichever of the two orderInbox picks. The
// generated rounds have what makes the two differ if the walk is wrong:
// homonyms sending one payload (several arena entries under one KeyID, of
// which different recipients first-sight different copies), per-recipient
// masked senders, link-duplicated entries (the same index twice), tails
// stamped after the rows, identifiers too wide to pack — and an arena
// that grows after its order was first built.
func TestRoundOrderWalkMatchesOrderRefs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	same := func(a, b []int32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 300; trial++ {
		l := 1 + rng.Intn(5)
		n := l + rng.Intn(8)
		bodies := 1 + rng.Intn(6)
		idOf := func(slot int) hom.Identifier {
			if trial%10 == 9 { // too wide for the packed sort
				return []hom.Identifier{math.MinInt64, 0, math.MaxInt64}[slot%l%3]
			}
			return hom.Identifier(slot%l + 1)
		}
		it := NewInterner()
		arena := &SendArena{}
		var sender []int // arena entry -> sender slot
		stamp := func(slot int) {
			body := Raw("m" + strconv.Itoa(rng.Intn(bodies)))
			arena.Append(it, idOf(slot), body, body.Key())
			sender = append(sender, slot)
		}
		for slot := 0; slot < n; slot++ {
			for k := rng.Intn(4); k > 0; k-- {
				stamp(slot)
			}
		}
		rows := arena.Len()
		check := func(label string) {
			var idx []int32
			masked := rng.Intn(n + 1) // one sender masked out, or none
			for si := 0; si < arena.Len(); si++ {
				switch {
				case sender[si] == masked, si >= rows && rng.Intn(2) == 0:
				case rng.Intn(5) == 0:
					idx = append(idx, int32(si), int32(si)) // duplicated on the link
				default:
					idx = append(idx, int32(si))
				}
			}
			for _, numerate := range []bool{false, true} {
				in := NewPooledInboxSoA(numerate, arena, idx)
				ref := in.core.ref
				want := orderRefs(nil, ref, arena.ids, arena.kids)
				if got := orderByWalk(nil, ref, arena); !same(got, want) {
					t.Fatalf("trial %d %s: walk over %d first sights of %d entries gives %v, own sort %v", trial, label, len(ref), arena.Len(), got, want)
				}
				if got := in.core.sortIndex(); !same(got, want) {
					t.Fatalf("trial %d %s: Inbox.sortIndex = %v, want %v", trial, label, got, want)
				}
				g := NewPooledGroupInbox(numerate, arena, idx)
				if !same(g.ref, ref) {
					t.Fatalf("trial %d %s: shared core and inbox disagree on first sights", trial, label)
				}
				if got := orderByWalk(nil, g.ref, arena); !same(got, want) {
					t.Fatalf("trial %d %s: walk for the shared core gives %v, want %v", trial, label, got, want)
				}
				view := NewPooledInboxView(g)
				if got := view.core.sortIndex(); !same(got, want) {
					t.Fatalf("trial %d %s: GroupInbox.sortIndex = %v, want %v", trial, label, got, want)
				}
				view.Recycle()
				g.Recycle()
				in.Recycle()
			}
		}
		for recipient := 0; recipient < 3; recipient++ {
			check("rows")
		}
		for k := rng.Intn(6); k > 0; k-- {
			stamp(rng.Intn(n)) // a tail, stamped after the order above was built
		}
		check("rows+tail")
	}
}

// TestWeightedInboxFoldsMultiplicities covers an arena entry standing
// for several copies: copies add for a numerate receiver and collapse for
// an innumerate one, and an entry appended with its KeyID in hand is the
// entry appended through its key.
func TestWeightedInboxFoldsMultiplicities(t *testing.T) {
	for _, tc := range []struct {
		numerate bool
		total    int
		counts   []int // by sorted position: (1,a), (2,b)
	}{
		{true, 10, []int{8, 2}},
		{false, 2, []int{1, 1}},
	} {
		it := NewPooledInterner()
		arena := &SendArena{}
		var kb KeyBuilder
		kb.Reset("raw").Str("a") // Raw("a").Key(), as the scratch path builds it
		a := arena.AppendStamped(it, 1, Raw("a"), kb.InternMessage(it, 1), 5)
		b := arena.AppendStamped(it, 2, Raw("b"), kb.Reset("raw").Str("b").InternMessage(it, 2), 2)
		a2 := arena.Append(it, 1, Raw("a"), Raw("a").Key())
		arena.copies[a2] = 3
		if arena.Key(a) != arena.Key(a2) || arena.KID(a) != arena.KID(a2) {
			t.Fatal("AppendStamped and Append stamped the same send differently")
		}
		if it.Len() != 2 {
			t.Fatalf("stamping interned %d keys for 2 distinct messages: only message keys are symbolized", it.Len())
		}
		in := NewPooledInboxSoA(tc.numerate, arena, []int32{a, b, a2})
		if in.Len() != 2 || in.TotalCount() != tc.total {
			t.Fatalf("numerate=%v: len/total %d/%d, want 2/%d", tc.numerate, in.Len(), in.TotalCount(), tc.total)
		}
		for i, want := range tc.counts {
			if got := in.CountAt(i); got != want {
				t.Fatalf("numerate=%v: CountAt(%d) = %d, want %d", tc.numerate, i, got, want)
			}
		}
		in.Recycle()
		it.Recycle()
	}
}

// TestWeightedFillMatchesExpandedFill pins what a multiplicity means: a
// batch whose entries carry copies >= 1, filled once, is observationally
// the batch with every entry repeated copies times — on Len, TotalCount,
// the sorted order, CountAt and KeyIDs, numerate and
// innumerate, through the per-recipient fill and the shared core alike.
// Batches repeat and skip entries, as link duplication and masks do.
//
// A delta inbox is one more input: the batch less some entries it holds
// once, which go to a standing arena instead. Its union must be the whole
// batch's fill, and its Delta the fill of what is left; on every other
// inbox Delta is the inbox itself.
func TestWeightedFillMatchesExpandedFill(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		it := NewInterner()
		weighted, expanded := &SendArena{}, &SendArena{}
		var span [][]int32 // weighted entry -> its expanded entries
		for k := rng.Intn(40); k > 0; k-- {
			id := hom.Identifier(1 + rng.Intn(4))
			body := Raw("m" + strconv.Itoa(rng.Intn(6)))
			copies := int32(1 + rng.Intn(5))
			kid, _ := it.InternMessageKey(int64(id), body.Key())
			weighted.AppendStamped(it, id, body, kid, copies)
			var xs []int32
			for c := int32(0); c < copies; c++ {
				xs = append(xs, expanded.Append(it, id, body, body.Key()))
			}
			span = append(span, xs)
		}
		var widx, xidx []int32
		for si, xs := range span {
			for rep := []int{0, 1, 1, 1, 2}[rng.Intn(5)]; rep > 0; rep-- {
				widx = append(widx, int32(si))
				xidx = append(xidx, xs...)
			}
		}
		once := make(map[int32]int)
		for _, si := range widx {
			once[si]++
		}
		standing := &SendArena{}
		var didx []int32
		for _, si := range widx {
			if once[si] == 1 && rng.Intn(2) == 0 {
				standing.AppendStamped(it, weighted.ID(si), weighted.Body(si), weighted.KID(si), weighted.Copies(si))
				continue
			}
			didx = append(didx, si)
		}
		for _, numerate := range []bool{false, true} {
			want := NewPooledInboxSoA(numerate, expanded, xidx)
			core := NewPooledGroupInbox(numerate, weighted, widx)
			dcore := NewPooledGroupInbox(numerate, weighted, didx)
			for label, got := range map[string]*Inbox{
				"own":   NewPooledInboxSoA(numerate, weighted, widx),
				"core":  NewPooledInboxView(core),
				"delta": NewPooledInboxView(dcore, standing),
			} {
				if label != "delta" && got.Delta() != got {
					t.Fatalf("trial %d numerate=%v %s: Delta of an inbox with no standing entries is another inbox", trial, numerate, label)
				}
				if label == "delta" {
					delta := NewPooledInboxSoA(numerate, weighted, didx)
					if a, b := fillFingerprint(got.Delta()), fillFingerprint(delta); a != b {
						t.Fatalf("trial %d numerate=%v: Delta %s, the fill of the batch less its standing entries %s", trial, numerate, a, b)
					}
					delta.Recycle()
				}
				if got.Len() != want.Len() || got.TotalCount() != want.TotalCount() {
					t.Fatalf("trial %d numerate=%v %s: len/total %d/%d, expanded %d/%d",
						trial, numerate, label, got.Len(), got.TotalCount(), want.Len(), want.TotalCount())
				}
				for i := 0; i < want.Len(); i++ {
					if got.MessageAt(i).Key() != want.MessageAt(i).Key() || got.MessageAt(i).KeyID() != want.MessageAt(i).KeyID() || got.CountAt(i) != want.CountAt(i) {
						t.Fatalf("trial %d numerate=%v %s: position %d holds %q (KeyID %d) x%d, expanded %q (KeyID %d) x%d",
							trial, numerate, label, i, got.MessageAt(i).Key(), got.MessageAt(i).KeyID(), got.CountAt(i),
							want.MessageAt(i).Key(), want.MessageAt(i).KeyID(), want.CountAt(i))
					}
				}
				got.Recycle()
			}
			core.Recycle()
			dcore.Recycle()
			want.Recycle()
		}
	}
	if in := NewInbox(true, []Message{NewMessage(1, Raw("x"))}); in.Delta() != in {
		t.Fatal("Delta of a NewInbox inbox is another inbox")
	}
}

// fillFingerprint renders an inbox's sorted contents with their counts.
func fillFingerprint(in *Inbox) string {
	s := strconv.Itoa(in.Len()) + "/" + strconv.Itoa(in.TotalCount())
	for i := 0; i < in.Len(); i++ {
		s += " " + in.MessageAt(i).Key() + "x" + strconv.Itoa(in.CountAt(i))
	}
	return s
}

// TestLegacyInboxQueries covers a ranked inbox (NewInbox over messages
// without KeyIDs) through the indexed accessors.
func TestLegacyInboxQueries(t *testing.T) {
	raw := []Message{
		NewMessageKeyed(2, Raw("x"), Raw("x").Key()),
		{ID: 1, Body: Raw("y")},
		NewMessage(2, Raw("x")),
		{ID: 3, Body: Raw("x")},
	}
	in := NewInbox(true, raw)
	if in.MessageAt(0).KeyID() != NoKey || in.PayloadIDAt(0) != NoPayload {
		t.Fatal("ranked inbox exposed a KeyID")
	}
	if in.Len() != 3 || in.TotalCount() != 4 {
		t.Fatalf("len/total %d/%d, want 3/4", in.Len(), in.TotalCount())
	}
	if got := []int{in.CountAt(0), in.CountAt(1), in.CountAt(2)}; got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("CountAt by position = %v, want [1 2 1]", got)
	}
	if got := []hom.Identifier{in.SenderAt(0), in.SenderAt(1), in.SenderAt(2)}; got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("SenderAt by position = %v, want [1 2 3]", got)
	}
	if lo, hi := in.IdentifierRange(9); lo != hi {
		t.Fatalf("IdentifierRange of an identifier never heard = [%d,%d)", lo, hi)
	}
	var kb KeyBuilder
	if string(kb.Reset("t").Int(3).Bytes()) != kb.String() {
		t.Fatal("KeyBuilder.Bytes and String disagree")
	}
}
