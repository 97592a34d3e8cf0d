package psyncnum

import (
	"fmt"
	"math/rand"
	"strings"
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

// fmtFingerprint is StateFingerprint as it was first written, rendering
// the state with fmt: the oracle TestStateFingerprintMatchesFmtRendering
// holds the strconv rendering to.
func fmtFingerprint(pr *Process) msg.StateHash {
	rows := map[string]string{}
	for kid, row := range pr.witnesses {
		var b strings.Builder
		for id, a := range row.byID {
			if a > 0 {
				fmt.Fprintf(&b, "%d:%d ", id, a)
			}
		}
		if b.Len() > 0 || len(row.overflow) > 0 {
			rows[pr.keys.Key(msg.KeyID(kid))] = fmt.Sprint(b.String(), row.overflow)
		}
	}
	state := fmt.Sprint(pr.decision, pr.maxAcceptPhase, pr.proper.Values(), pr.locks, pr.lockSeen, rows)
	return pr.bc.Fingerprint(msg.NewStateHash().String(state))
}

// TestStateFingerprintMatchesFmtRendering fingerprints generated states —
// decisions and values including ⊥ and negatives, empty and nil maps,
// witness rows that are all zero, in range, or only in the overflow map
// (identifiers beyond ℓ, and negative ones), keys that sort apart from
// their KeyIDs — and requires the fmt oracle's hash every time.
func TestStateFingerprintMatchesFmtRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	values := []hom.Value{hom.NoValue, -3, 0, 1, 2, 17}
	anyValue := func() hom.Value { return values[rng.Intn(len(values))] }
	for iter := 0; iter < 500; iter++ {
		p := numParams(4+rng.Intn(6), 1+rng.Intn(3), 1)
		pr := newProc(p, hom.Identifier(1+rng.Intn(p.L)), anyValue())
		pr.decision = anyValue()
		pr.maxAcceptPhase = rng.Intn(5) - 1
		for range rng.Intn(4) {
			pr.proper.Add(anyValue())
		}
		if rng.Intn(4) == 0 {
			pr.locks = nil
		} else {
			for range rng.Intn(4) {
				pr.locks[anyValue()] = rng.Intn(6) - 1
			}
		}
		for range rng.Intn(4) {
			pr.lockSeen[anyValue()] = rng.Intn(2) == 0
		}
		for range rng.Intn(6) {
			kid := pr.keys.Intern(fmt.Sprintf("k%c|%d", 'z'-rune(rng.Intn(26)), rng.Intn(3)))
			id := hom.Identifier(rng.Intn(p.L+4) - 1)
			pr.addWitness(kid, id, rng.Intn(4))
		}
		if got, want := pr.StateFingerprint(), fmtFingerprint(pr); got != want {
			t.Fatalf("iter %d: fingerprint %x, fmt rendering %x", iter, got, want)
		}
	}
}
