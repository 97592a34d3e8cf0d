package numbcast

import (
	"fmt"
	"slices"
	"testing"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// tableDump renders what Fingerprint must capture, independently of it:
// the pending inits' keys as a multiset and the α > 0 cells by (h, k,
// body key).
func tableDump(b *Broadcaster) string {
	var pending []string
	for _, m := range b.pending {
		pending = append(pending, m.Key())
	}
	slices.Sort(pending)
	cells := map[string]int{}
	for _, c := range b.tab.cells {
		if c.alpha > 0 {
			cells[fmt.Sprintf("%d|%d|%s", c.h, c.k, c.body.Key())] = c.alpha
		}
	}
	return fmt.Sprint(pending, cells)
}

// TestFingerprintIsCanonicalState runs four broadcasters through six
// rounds under a fixed pattern of lost bundles, next to a twin of each
// that ingests the same deliveries in reverse order — so its body IDs
// are issued in another order. Each twin must fingerprint as its
// original, and any two states seen (after a Broadcast and after every
// round) must fingerprint equal exactly when their dumps are equal.
func TestFingerprintIsCanonicalState(t *testing.T) {
	const n, tf = 4, 1
	ids := []hom.Identifier{1, 2, 1, 2}
	orig := make([]*Broadcaster, n)
	twin := make([]*Broadcaster, n)
	for i := range orig {
		orig[i], twin[i] = newBroadcaster(n, tf), newBroadcaster(n, tf)
	}
	lost := func(round, from, to int) bool { return from != to && (round*7+from*3+to*5)%4 == 0 }
	type snap struct {
		fp   msg.StateHash
		dump string
	}
	var snaps []snap
	record := func(b *Broadcaster) { snaps = append(snaps, snap{b.Fingerprint(msg.NewStateHash()), tableDump(b)}) }
	reordered := false
	for round := 1; round <= 6; round++ {
		if hom.IsInitRound(round) {
			for i := range orig {
				body := valueBody{V: hom.Value((i + round) % 2)}
				orig[i].Broadcast(body)
				twin[i].Broadcast(body)
				record(orig[i])
			}
		}
		out := make([]*Bundle, n)
		for i, b := range orig {
			pl := b.Outgoing(round)
			if tw := twin[i].Outgoing(round); (pl == nil) != (tw == nil) || pl != nil && pl.Key() != tw.Key() {
				t.Fatalf("round %d: twin %d sends another bundle", round, i)
			}
			if pl != nil {
				out[i] = pl.(*Bundle)
			}
		}
		for to := range orig {
			var in []Delivery
			for from, bd := range out {
				if bd != nil && !lost(round, from, to) {
					in = append(in, Delivery{ID: ids[from], Bundle: bd, Copies: 1})
				}
			}
			orig[to].Ingest(round, in)
			slices.Reverse(in)
			twin[to].Ingest(round, in)
		}
		for i, b := range orig {
			if got, want := twin[i].Fingerprint(msg.NewStateHash()), b.Fingerprint(msg.NewStateHash()); got != want {
				t.Fatalf("round %d: twin %d fingerprints %x, original %x", round, i, got, want)
			}
			reordered = reordered || !slices.Equal(twin[i].tab.bodies.Snapshot(), b.tab.bodies.Snapshot())
			record(b)
		}
	}
	if !reordered {
		t.Fatal("fixture: no twin issued its body IDs in another order")
	}
	equal, unequal := 0, 0
	for i := range snaps {
		for j := i + 1; j < len(snaps); j++ {
			same := snaps[i].dump == snaps[j].dump
			if same != (snaps[i].fp == snaps[j].fp) {
				t.Fatalf("snapshots %d and %d: dumps equal %v, fingerprints equal %v\n%s\n%s",
					i, j, same, !same, snaps[i].dump, snaps[j].dump)
			}
			if same {
				equal++
			} else {
				unequal++
			}
		}
	}
	if equal == 0 || unequal == 0 {
		t.Fatalf("fixture: %d equal and %d unequal pairs; want both", equal, unequal)
	}
}
