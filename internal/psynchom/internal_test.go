package psynchom

import (
	"testing"
	"testing/quick"

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
	pr.locks[1] = 3
	if got := pr.proposableValues(); !got.Equal(hom.NewValueSet(1)) {
		t.Fatalf("lock on 1: V = %s", got)
	}
	// Conflicting locks exclude everything.
	pr.locks[0] = 4
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
	pr.proposeAcc[0] = map[hom.Identifier]hom.ValueSet{
		1: hom.NewValueSet(0, 1),
		2: hom.NewValueSet(0),
		3: hom.NewValueSet(0, 1),
	}
	if _, ok := pr.pickLockValue(0); ok {
		t.Fatal("locked with 3 < 4 supporting identifiers")
	}
	pr.proposeAcc[0][4] = hom.NewValueSet(0)
	v, ok := pr.pickLockValue(0)
	if !ok || v != 0 {
		t.Fatalf("pickLockValue = %d, %v; want 0", v, ok)
	}
	// With both values supported, the smallest wins (canonical choice).
	pr.proposeAcc[0][4] = hom.NewValueSet(0, 1)
	pr.proposeAcc[0][2] = hom.NewValueSet(0, 1)
	if v, _ := pr.pickLockValue(0); v != 0 {
		t.Fatalf("canonical choice = %d, want 0", v)
	}
}

func TestReleaseLocks(t *testing.T) {
	pr := newProc(psyncParams(6, 5, 1), 1, 0)
	pr.locks[0] = 2 // (v=0, ph=2)
	// Accepted votes for value 1 in a LATER phase from l-t identifiers
	// release the lock.
	pr.voteAcc[3] = map[hom.Value]map[hom.Identifier]bool{
		1: {1: true, 2: true, 3: true, 4: true},
	}
	pr.releaseLocks()
	if _, held := pr.locks[0]; held {
		t.Fatal("lock not released by later-phase vote quorum")
	}
	// Votes in an EARLIER phase must not release.
	pr.locks[0] = 5
	pr.releaseLocks()
	if _, held := pr.locks[0]; !held {
		t.Fatal("lock released by earlier-phase votes")
	}
	// Votes for the SAME value must not release.
	pr.locks = map[hom.Value]int{1: 2}
	pr.releaseLocks()
	if _, held := pr.locks[1]; !held {
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
