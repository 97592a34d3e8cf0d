package psyncnum

import (
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

func numParams(n, l, t int) hom.Params {
	return hom.Params{
		N: n, L: l, T: t,
		Synchrony:           hom.PartiallySynchronous,
		Numerate:            true,
		RestrictedByzantine: true,
	}
}

func newProc(p hom.Params, id hom.Identifier, input hom.Value) *Process {
	pr := &Process{}
	pr.Init(engine.Context{ID: id, Input: input, Params: p})
	return pr
}

func TestWitnessCountSumsMaxAlphas(t *testing.T) {
	pr := newProc(numParams(7, 2, 1), 1, 0)
	kid := pr.proposeKID(0, 0)
	pr.addWitness(kid, 1, 3)
	pr.addWitness(kid, 2, 2)
	pr.addWitness(kid, 1, 2) // lower alpha must not override the max
	if got := pr.witnessCount(kid); got != 5 {
		t.Fatalf("witnessCount = %d, want 5", got)
	}
	if got := pr.witnessCount(pr.proposeKID(1, 0)); got != 0 {
		t.Fatalf("witnessCount of unseen payload = %d, want 0", got)
	}
	// The scratch-built key must agree byte for byte with the payload's
	// own canonical key (the interned fast path depends on it).
	if key := (ProposePayload{Phase: 0, Val: 0}).Key(); pr.keys.Lookup(key) != kid {
		t.Fatalf("proposeKID bytes diverge from ProposePayload.Key %q", key)
	}
	// Out-of-range identifiers (Byzantine bundles) land in the overflow
	// map and still count.
	pr.addWitness(kid, 99, 4)
	if got := pr.witnessCount(kid); got != 9 {
		t.Fatalf("witnessCount with overflow id = %d, want 9", got)
	}
}

func TestProperCopyCountingRule(t *testing.T) {
	// Numerate rule: t+1 message COPIES carrying v make it proper — here
	// two identical copies from one identifier's clones suffice at t=1.
	pr := newProc(numParams(7, 2, 1), 1, 0)
	pp := ProperPayload{V: hom.NewValueSet(1)}
	in := msg.NewInbox(true, []msg.Message{
		{ID: 2, Body: pp},
		{ID: 2, Body: pp}, // second clone copy
	})
	pr.Receive(2, in)
	if !pr.proper.Contains(1) {
		t.Fatal("copy-counted proper rule failed")
	}
}

func TestProperCopyCountingInnumerateWouldFail(t *testing.T) {
	// The same traffic through a set-semantics inbox collapses to one
	// copy and must NOT make the value proper — the A3 ablation seed.
	pr := newProc(numParams(7, 2, 1), 1, 0)
	pp := ProperPayload{V: hom.NewValueSet(1)}
	in := msg.NewInbox(false, []msg.Message{
		{ID: 2, Body: pp},
		{ID: 2, Body: pp},
	})
	pr.Receive(2, in)
	if pr.proper.Contains(1) {
		t.Fatal("set-semantics inbox still passed the copy threshold")
	}
}

func TestProperCatchAllCopies(t *testing.T) {
	// 2t+1 proper copies with no t+1-supported value: add the domain.
	pr := newProc(numParams(7, 2, 2), 1, 0)
	in := msg.NewInbox(true, []msg.Message{
		{ID: 1, Body: ProperPayload{V: hom.NewValueSet(5)}},
		{ID: 2, Body: ProperPayload{V: hom.NewValueSet(6)}},
		{ID: 1, Body: ProperPayload{V: hom.NewValueSet(7)}},
		{ID: 2, Body: ProperPayload{V: hom.NewValueSet(8)}},
		{ID: 1, Body: ProperPayload{V: hom.NewValueSet(9)}},
	})
	pr.Receive(2, in)
	if !pr.proper.Contains(0) || !pr.proper.Contains(1) {
		t.Fatal("catch-all rule did not add the domain")
	}
}

func TestPickersUseWitnessThresholds(t *testing.T) {
	p := numParams(7, 2, 1)
	pr := newProc(p, 1, 0)
	need := p.N - p.T // 6
	kid := pr.proposeKID(0, 1)
	pr.addWitness(kid, 1, 3)
	pr.addWitness(kid, 2, 2)
	if _, ok := pr.pickWitnessed(0, need); ok {
		t.Fatal("picked a value with 5 < 6 witnesses")
	}
	pr.addWitness(kid, 2, 3)
	v, ok := pr.pickWitnessed(0, need)
	if !ok || v != 1 {
		t.Fatalf("pickWitnessed = %d, %v; want 1", v, ok)
	}
	// Vote value additionally requires a leader lock request.
	if _, ok := pr.pickVoteValue(0, need); ok {
		t.Fatal("voted without a lock request")
	}
	pr.lockSeen[1] = true
	if v, ok := pr.pickVoteValue(0, need); !ok || v != 1 {
		t.Fatalf("pickVoteValue = %d, %v; want 1", v, ok)
	}
}

func TestReleaseLocksByWitnesses(t *testing.T) {
	p := numParams(7, 2, 1)
	pr := newProc(p, 1, 0)
	need := p.N - p.T
	pr.locks[0] = 1
	kid := pr.voteKID(3, 1)
	pr.addWitness(kid, 1, 4)
	pr.addWitness(kid, 2, 2)
	pr.maxAcceptPhase = 3
	pr.releaseLocks(need)
	if _, held := pr.locks[0]; held {
		t.Fatal("lock survived a later-phase witnessed vote for another value")
	}
	// Same value: no release.
	pr.locks[1] = 1
	pr.releaseLocks(need)
	if _, held := pr.locks[1]; !held {
		t.Fatal("lock released by same-value votes")
	}
}

func TestSuperroundTags(t *testing.T) {
	if proposeSR(0) != 1 || voteSR(0) != 3 || proposeSR(2) != 9 || voteSR(2) != 11 {
		t.Fatal("superround tags off")
	}
}

func TestLeaderRotation(t *testing.T) {
	if hom.LeaderID(0, 2) != 1 || hom.LeaderID(1, 2) != 2 || hom.LeaderID(2, 2) != 1 {
		t.Fatal("LeaderID rotation incorrect")
	}
}
