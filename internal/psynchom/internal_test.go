package psynchom

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"homonyms/internal/authbcast"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// newProc builds an initialised process for white-box tests.
func newProc(p hom.Params, id hom.Identifier, input hom.Value) *Process {
	pr := &Process{}
	pr.Init(engine.Context{ID: id, Input: input, Params: p})
	return pr
}

// everyPosition lists an inbox's positions: scan over a whole inbox, as
// when the broadcast layer claimed nothing.
func everyPosition(in *msg.Inbox) []int32 {
	at := make([]int32, in.Len())
	for i := range at {
		at[i] = int32(i)
	}
	return at
}

func psyncParams(n, l, t int) hom.Params {
	return hom.Params{N: n, L: l, T: t, Synchrony: hom.PartiallySynchronous}
}

func TestProposableValuesLockFilter(t *testing.T) {
	pr := newProc(psyncParams(6, 5, 1), 1, 0)
	pr.proper.Add(1)
	// No locks: both proper values are proposable.
	if got := pr.proposableValues(); !got.Equal(hom.NewValueSet(0, 1)) {
		t.Fatalf("no locks: V = %s", got)
	}
	// A lock on 1 excludes every other value (paper line 7).
	pr.setLock(1, 3)
	if got := pr.proposableValues(); !got.Equal(hom.NewValueSet(1)) {
		t.Fatalf("lock on 1: V = %s", got)
	}
	// Conflicting locks exclude everything.
	pr.setLock(0, 4)
	if got := pr.proposableValues(); got.Len() != 0 {
		t.Fatalf("conflicting locks: V = %s", got)
	}
}

func TestProperSetThresholdRule(t *testing.T) {
	// t = 1: a value carried by proper sets from t+1 = 2 identifiers
	// becomes proper; junk carried by a single identifier does not.
	pr := newProc(psyncParams(6, 5, 1), 1, 0)
	in := msg.NewInbox(false, []msg.Message{
		{ID: 2, Body: ProperPayload{V: hom.NewValueSet(1)}},
		{ID: 3, Body: ProperPayload{V: hom.NewValueSet(1)}},
		{ID: 4, Body: ProperPayload{V: hom.NewValueSet(7)}},
	})
	pr.scan(in, everyPosition(in), 0, 1, false, false)
	pr.updateProper()
	if !pr.proper.Contains(1) {
		t.Fatal("2-identifier value not added to proper")
	}
	if pr.proper.Contains(7) {
		t.Fatal("1-identifier junk added to proper")
	}
}

func TestProperSetCatchAllRule(t *testing.T) {
	// 2t+1 identifiers report proper sets with no value reaching t+1
	// support: every domain value becomes proper. (l = 7 > 3t keeps the
	// broadcast layer constructible.)
	pr := newProc(psyncParams(8, 7, 2), 1, 0)
	in := msg.NewInbox(false, []msg.Message{
		{ID: 1, Body: ProperPayload{V: hom.NewValueSet(0)}},
		{ID: 2, Body: ProperPayload{V: hom.NewValueSet(1)}},
		{ID: 3, Body: ProperPayload{V: hom.NewValueSet(2)}},
		{ID: 4, Body: ProperPayload{V: hom.NewValueSet(3)}},
		{ID: 5, Body: ProperPayload{V: hom.NewValueSet(4)}},
	})
	pr.scan(in, everyPosition(in), 0, 1, false, false)
	pr.updateProper()
	for _, v := range pr.params.EffectiveDomain() {
		if !pr.proper.Contains(v) {
			t.Fatalf("catch-all rule missed domain value %d", v)
		}
	}
}

func TestProperSetCatchAllNeedsQuorum(t *testing.T) {
	// Only 2t identifiers reporting: the catch-all must not trigger.
	pr := newProc(psyncParams(8, 7, 2), 1, 0)
	in := msg.NewInbox(false, []msg.Message{
		{ID: 1, Body: ProperPayload{V: hom.NewValueSet(5)}},
		{ID: 2, Body: ProperPayload{V: hom.NewValueSet(6)}},
		{ID: 3, Body: ProperPayload{V: hom.NewValueSet(7)}},
		{ID: 4, Body: ProperPayload{V: hom.NewValueSet(8)}},
	})
	pr.scan(in, everyPosition(in), 0, 1, false, false)
	pr.updateProper()
	if pr.proper.Contains(1) {
		t.Fatal("catch-all triggered below 2t+1 identifiers")
	}
}

func TestPickLockValueQuorum(t *testing.T) {
	// l = 5, t = 1: the lock value needs propose support from l-t = 4
	// identifiers.
	pr := newProc(psyncParams(6, 5, 1), 1, 0)
	propose := func(id hom.Identifier, vs ...hom.Value) {
		for _, v := range vs {
			pr.proposeAcc.add(0, v, id)
		}
	}
	propose(1, 1, 0)
	propose(2, 0)
	propose(3, 0, 1)
	propose(1, 5, 1) // a later propose from 1 only adds to its set
	if _, ok := pr.pickLockValue(0); ok {
		t.Fatal("locked with 3 < 4 supporting identifiers")
	}
	propose(4, 0)
	v, ok := pr.pickLockValue(0)
	if !ok || v != 0 {
		t.Fatalf("pickLockValue = %d, %v; want 0", v, ok)
	}
	// With both values supported, the smallest wins (canonical choice).
	propose(4, 1)
	propose(2, 1)
	if v, _ := pr.pickLockValue(0); v != 0 {
		t.Fatalf("canonical choice = %d, want 0", v)
	}
}

func TestReleaseLocks(t *testing.T) {
	pr := newProc(psyncParams(6, 5, 1), 1, 0)
	pr.setLock(0, 2) // (v=0, ph=2)
	pr.setLock(2, 4) // (v=2, ph=4): no later phase has a vote quorum
	// Accepted votes for value 1 in a LATER phase from l-t identifiers
	// release the lock.
	for id := hom.Identifier(1); id <= 4; id++ {
		pr.voteAcc.add(3, 1, id)
	}
	pr.voteAcc.add(5, 0, 1) // below quorum: releases nothing
	pr.releaseLocks()
	if want := []lock{{2, 4}}; !slices.Equal(pr.locks, want) {
		t.Fatalf("locks = %v after a later-phase vote quorum, want %v", pr.locks, want)
	}
	// Votes in an EARLIER phase must not release.
	pr.setLock(0, 5)
	pr.releaseLocks()
	if want := []lock{{0, 5}, {2, 4}}; !slices.Equal(pr.locks, want) {
		t.Fatalf("locks = %v after earlier-phase votes, want %v", pr.locks, want)
	}
	// Votes for the SAME value must not release.
	pr.locks = []lock{{1, 2}}
	pr.releaseLocks()
	if want := []lock{{1, 2}}; !slices.Equal(pr.locks, want) {
		t.Fatal("lock released by same-value votes")
	}
}

func TestQuorumIntersectionLemma7(t *testing.T) {
	// Lemma 7: when 2l > n+3t, any two sets of l-t identifiers intersect
	// in more than (n-l) + t identifiers — i.e. at least one identifier
	// that is neither shared by multiple processes nor held by a
	// Byzantine process. Property-check the arithmetic over the whole
	// solvable region.
	check := func(nRaw, tRaw, lRaw uint8) bool {
		tt := int(tRaw%3) + 1
		n := 3*tt + 1 + int(nRaw%8)
		l := 1 + int(lRaw)%n
		if 2*l <= n+3*tt || l > n {
			return true // outside the lemma's precondition
		}
		// |A ∩ B| >= 2(l-t) - l = l - 2t must exceed (n-l) + t.
		return l-2*tt > (n-l)+tt
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPhasePosMapping(t *testing.T) {
	tests := []struct{ round, phase, pos int }{
		{1, 0, 1}, {8, 0, 8}, {9, 1, 1}, {16, 1, 8}, {17, 2, 1},
	}
	for _, tc := range tests {
		phase, pos := hom.PhasePos(tc.round)
		if phase != tc.phase || pos != tc.pos {
			t.Fatalf("hom.PhasePos(%d) = (%d,%d), want (%d,%d)", tc.round, phase, pos, tc.phase, tc.pos)
		}
	}
}

func TestPayloadKeysDistinct(t *testing.T) {
	keys := map[string]bool{}
	for _, p := range []msg.Payload{
		ProposePayload{Phase: 1, V: hom.NewValueSet(0)},
		ProposePayload{Phase: 2, V: hom.NewValueSet(0)},
		ProposePayload{Phase: 1, V: hom.NewValueSet(1)},
		VotePayload{Phase: 1, Val: 0},
		VotePayload{Phase: 1, Val: 1},
		LockPayload{Phase: 1, Val: 0},
		AckPayload{Phase: 1, Val: 0},
		DecidePayload{Val: 0},
		ProperPayload{V: hom.NewValueSet(0)},
	} {
		k := p.Key()
		if keys[k] {
			t.Fatalf("duplicate payload key %q", k)
		}
		keys[k] = true
	}
}

// acceptLog is the accept bookkeeping as the maps of earlier versions
// kept it: per phase, each identifier's union of accepted propose sets
// (present, possibly empty, once one is accepted), and each value's
// supporting identifiers. TestFingerprintSeparatesAcceptStates holds the
// tallies' fingerprint to the states it tells apart.
type acceptLog struct {
	proposes map[int]map[hom.Identifier]hom.ValueSet
	votes    map[int]map[hom.Value]map[hom.Identifier]bool
}

func (lg *acceptLog) accept(acc authbcast.Accept) {
	switch body := acc.Body.(type) {
	case ProposePayload:
		if lg.proposes[body.Phase] == nil {
			lg.proposes[body.Phase] = map[hom.Identifier]hom.ValueSet{}
		}
		set := lg.proposes[body.Phase][acc.ID]
		set.AddAll(body.V.Values())
		lg.proposes[body.Phase][acc.ID] = set
	case VotePayload:
		if lg.votes[body.Phase] == nil {
			lg.votes[body.Phase] = map[hom.Value]map[hom.Identifier]bool{}
		}
		if lg.votes[body.Phase][body.Val] == nil {
			lg.votes[body.Phase][body.Val] = map[hom.Identifier]bool{}
		}
		lg.votes[body.Phase][body.Val][acc.ID] = true
	}
}

// String renders the log canonically (fmt prints maps in key order).
func (lg *acceptLog) String() string { return fmt.Sprint(lg.proposes, lg.votes) }

// randomAccept draws from a small universe, so that two short random
// sequences often reach the same state: empty proposes, repeats, other
// phases, values beyond the domain.
func randomAccept(rng *rand.Rand, l int) authbcast.Accept {
	id := hom.Identifier(1 + rng.Intn(min(l, 3)))
	phase := rng.Intn(2)
	if rng.Intn(2) == 0 {
		v := hom.NewValueSet()
		for k := rng.Intn(3); k > 0; k-- {
			v.Add(hom.Value(rng.Intn(3)))
		}
		return authbcast.Accept{ID: id, Body: ProposePayload{Phase: phase, V: v}}
	}
	return authbcast.Accept{ID: id, Body: VotePayload{Phase: phase, Val: hom.Value(rng.Intn(2))}}
}

// TestFingerprintSeparatesAcceptStates feeds pairs of processes random
// accept sequences, the second a reordering of the first that is
// sometimes changed in one accept, and checks that their fingerprints are equal exactly
// when the map bookkeeping of the same accepts is: the identifier tallies
// keep every distinction the maps made, an accepted empty propose
// included, and add none, accept order included.
func TestFingerprintSeparatesAcceptStates(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	equal := 0
	for iter := 0; iter < 3000; iter++ {
		p := psyncParams(6, 5, 1)
		if iter%2 == 1 {
			p = psyncParams(80, 70, 3) // identifiers in two bitset words
		}
		// The second sequence is the first reordered, then half the time
		// changed in one accept.
		var seqs [2][]authbcast.Accept
		for n := 1 + rng.Intn(4); n > 0; n-- {
			seqs[0] = append(seqs[0], randomAccept(rng, p.L))
		}
		seqs[1] = slices.Clone(seqs[0])
		rng.Shuffle(len(seqs[1]), func(i, j int) { seqs[1][i], seqs[1][j] = seqs[1][j], seqs[1][i] })
		if rng.Intn(2) == 0 {
			seqs[1][rng.Intn(len(seqs[1]))] = randomAccept(rng, p.L)
		}
		var prs [2]*Process
		var logs [2]acceptLog
		for k := range prs {
			prs[k] = newProc(p, 1, 0)
			logs[k] = acceptLog{map[int]map[hom.Identifier]hom.ValueSet{}, map[int]map[hom.Value]map[hom.Identifier]bool{}}
			for _, acc := range seqs[k] {
				prs[k].accept(acc)
				logs[k].accept(acc)
			}
		}
		sameLog := logs[0].String() == logs[1].String()
		if sameFP := prs[0].StateFingerprint() == prs[1].StateFingerprint(); sameFP != sameLog {
			t.Fatalf("%v: fingerprints equal = %v, but logs %s and %s equal = %v", p, sameFP, &logs[0], &logs[1], sameLog)
		}
		if sameLog {
			equal++
		}
	}
	if equal < 1000 || equal > 2500 {
		t.Fatalf("%d of 3000 pairs reached equal states: too few or too many to test both directions", equal)
	}
}

// TestCloneTalliesIndependent clones a process mid-phase — accepted
// proposes, one of them empty, votes, a lock and a lock request — and
// feeds the original and the clone different accepts: neither
// fingerprint moves with the other's, and equal states fingerprint
// equal again once both have seen the same accepts.
func TestCloneTalliesIndependent(t *testing.T) {
	p := psyncParams(16, 13, 3)
	pr := newProc(p, 2, 0)
	for id := hom.Identifier(1); id <= 9; id++ {
		pr.accept(authbcast.Accept{ID: id, Body: ProposePayload{Phase: 1, V: hom.NewValueSet(0, hom.Value(id%2))}})
		pr.accept(authbcast.Accept{ID: id, Body: VotePayload{Phase: 0, Val: 1}})
	}
	pr.accept(authbcast.Accept{ID: 10, Body: ProposePayload{Phase: 1, V: hom.NewValueSet()}})
	pr.setLock(1, 0)
	pr.lockSeen = append(pr.lockSeen, 0)
	before := pr.StateFingerprint()
	cp := pr.CloneProcess().(*Process)
	if cp.StateFingerprint() != before {
		t.Fatal("a clone fingerprints differently from its original")
	}

	toClone := []authbcast.Accept{
		{ID: 11, Body: ProposePayload{Phase: 1, V: hom.NewValueSet(1)}}, // a bit in an existing row
		{ID: 12, Body: ProposePayload{Phase: 1, V: hom.NewValueSet(7)}}, // a new row
		{ID: 3, Body: VotePayload{Phase: 1, Val: 0}},
	}
	toOriginal := []authbcast.Accept{
		{ID: 13, Body: ProposePayload{Phase: 2, V: hom.NewValueSet()}},
		{ID: 4, Body: VotePayload{Phase: 0, Val: 0}},
	}
	for _, acc := range toClone {
		cp.accept(acc)
	}
	cp.setLock(0, 1)
	if pr.StateFingerprint() != before {
		t.Fatal("accepts fed to the clone moved the original's fingerprint")
	}
	forked := cp.StateFingerprint()
	for _, acc := range toOriginal {
		pr.accept(acc)
	}
	if cp.StateFingerprint() != forked {
		t.Fatal("accepts fed to the original moved the clone's fingerprint")
	}
	for _, acc := range toOriginal {
		cp.accept(acc)
	}
	for _, acc := range toClone {
		pr.accept(acc)
	}
	pr.setLock(0, 1)
	if pr.StateFingerprint() != cp.StateFingerprint() {
		t.Fatal("original and clone fed the same accepts fingerprint differently")
	}
}
