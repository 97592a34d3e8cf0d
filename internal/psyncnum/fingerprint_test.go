package psyncnum

import (
	"fmt"
	"testing"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// stateDump renders what StateFingerprint must capture, independently
// of it: witness rows by canonical body key, every other field as it
// stands, and the broadcast layer by its own (separately tested)
// Fingerprint.
func stateDump(pr *Process) string {
	witnesses := map[string]map[hom.Identifier]int{}
	for kid, row := range pr.witnesses {
		byID := map[hom.Identifier]int{}
		for id, a := range row.byID {
			if a > 0 {
				byID[hom.Identifier(id)] = int(a)
			}
		}
		for id, a := range row.overflow {
			byID[id] = a
		}
		if len(byID) > 0 {
			witnesses[pr.keys.Key(msg.KeyID(kid))] = byID
		}
	}
	return fmt.Sprint(pr.decision, pr.maxAcceptPhase, pr.proper.Values(), pr.locks, pr.lockSeen, witnesses,
		pr.bc.Fingerprint(msg.NewStateHash()))
}

// TestStateFingerprintIsCanonicalState runs four Figure-7 processes
// through two phases under a fixed pattern of lost envelopes, next to a
// twin of each whose interner was probed first — so its body KeyIDs
// differ. Each twin must fingerprint as its original, and any two
// states seen must fingerprint equal exactly when their dumps are equal:
// a Receive that left a process elsewhere separates it.
func TestStateFingerprintIsCanonicalState(t *testing.T) {
	p := numParams(4, 2, 1)
	ids := []hom.Identifier{1, 2, 1, 2}
	orig := make([]*Process, p.N)
	twin := make([]*Process, p.N)
	for i := range orig {
		orig[i], twin[i] = newProc(p, ids[i], hom.Value(i%2)), newProc(p, ids[i], hom.Value(i%2))
		twin[i].voteKID(3, 1)
		twin[i].proposeKID(2, 0)
	}
	lost := func(round, from, to int) bool { return from != to && (round*7+from*3+to*5)%5 == 0 }
	type snap struct {
		fp   msg.StateHash
		dump string
	}
	var snaps []snap
	for round := 1; round <= 2*hom.RoundsPerPhase; round++ {
		var sent []msg.Message
		var from []int
		for i, pr := range orig {
			tw := twin[i].Prepare(round)
			for j, s := range pr.Prepare(round) {
				if s.Body.Key() != tw[j].Body.Key() {
					t.Fatalf("round %d: twin %d sends another envelope", round, i)
				}
				sent, from = append(sent, msg.Message{ID: ids[i], Body: s.Body}), append(from, i)
			}
		}
		for to := range orig {
			var in []msg.Message
			for k, m := range sent {
				if !lost(round, from[k], to) {
					in = append(in, m)
				}
			}
			orig[to].Receive(round, msg.NewInbox(true, in))
			twin[to].Receive(round, msg.NewInbox(true, in))
		}
		for i, pr := range orig {
			if got, want := twin[i].StateFingerprint(), pr.StateFingerprint(); got != want {
				t.Fatalf("round %d: twin %d fingerprints %x, original %x", round, i, got, want)
			}
			snaps = append(snaps, snap{pr.StateFingerprint(), stateDump(pr)})
		}
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
	t.Logf("%d snapshots; last: %s", len(snaps), snaps[len(snaps)-1].dump)
}
