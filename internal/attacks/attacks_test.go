package attacks_test

import (
	"testing"

	"homonyms/internal/attacks"
	"homonyms/internal/classical"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/psynchom"
	"homonyms/internal/psyncnum"
	"homonyms/internal/synchom"
	"homonyms/internal/trace"
)

// --- Partition attack (Figure 4 / Proposition 4, experiment E4) ----------

func partitionParams(n, l, t int) hom.Params {
	return hom.Params{N: n, L: l, T: t, Synchrony: hom.PartiallySynchronous}
}

func TestPartitionDefeatsFigure5AtTheBound(t *testing.T) {
	// n = 5, l = 4, t = 1: 2l = 8 <= 9 = n+3t. The paper's crossover
	// anomaly: this very algorithm works at n = 4.
	p := partitionParams(5, 4, 1)
	factory := psynchom.NewUnchecked(p, psynchom.Options{})
	rep, err := attacks.Partition(p, factory, 12*psynchom.RoundsPerPhase)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if !rep.Succeeded() {
		t.Fatalf("partition attack failed to violate agreement: %s (alpha decided %d, beta decided %d)",
			rep.Verdict, rep.AlphaDecidedRound, rep.BetaDecidedRound)
	}
	// The two camps must have decided their own simulation's value.
	for _, s := range rep.XSlots {
		if rep.Result.DecidedAt[s] != 0 && rep.Result.Decisions[s] != 0 {
			t.Fatalf("X slot %d decided %d, want 0", s, rep.Result.Decisions[s])
		}
	}
	for _, s := range rep.YSlots {
		if rep.Result.DecidedAt[s] != 0 && rep.Result.Decisions[s] != 1 {
			t.Fatalf("Y slot %d decided %d, want 1", s, rep.Result.Decisions[s])
		}
	}
	if rep.AlphaDecidedRound == 0 || rep.BetaDecidedRound == 0 {
		t.Fatal("internal executions alpha/beta did not decide — attack vacuous")
	}
}

func TestPartitionLargerInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("larger partition instance skipped in -short mode")
	}
	// n = 9, l = 7, t = 2: 2l = 14 <= 15 = n+3t, l = 7 > 6 = 3t.
	p := partitionParams(9, 7, 2)
	factory := psynchom.NewUnchecked(p, psynchom.Options{})
	rep, err := attacks.Partition(p, factory, 16*psynchom.RoundsPerPhase)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if !rep.Succeeded() {
		t.Fatalf("partition attack failed: %s", rep.Verdict)
	}
}

func TestPartitionRejectsSolvableRegion(t *testing.T) {
	// In the solvable region the construction does not exist (pad < 0);
	// the attack must refuse to run rather than report garbage.
	p := partitionParams(4, 4, 1) // 2l = 8 > 7 = n+3t
	factory := psynchom.NewUnchecked(p, psynchom.Options{})
	if _, err := attacks.Partition(p, factory, 32); err == nil {
		t.Fatal("Partition accepted solvable parameters")
	}
}

// --- Covering scenario (Figure 1 / Proposition 1, experiment E2) ---------

func TestCoveringDefeatsTransformAtThreeT(t *testing.T) {
	// l = 3t = 3, t = 1, n = 4: T(EIG) instantiated below its resilience
	// bound must break one of the three view obligations.
	tFaults := 1
	l := 3 * tFaults
	n := 4
	alg, err := classical.NewEIGUnchecked(l, tFaults, nil)
	if err != nil {
		t.Fatalf("NewEIGUnchecked: %v", err)
	}
	p := hom.Params{N: n, L: l, T: tFaults, Synchrony: hom.Synchronous}
	factory, err := synchom.New(alg, p)
	if err != nil {
		t.Fatalf("synchom.New: %v", err)
	}
	rep, err := attacks.Covering(p, factory, synchom.Rounds(alg)+6)
	if err != nil {
		t.Fatalf("Covering: %v", err)
	}
	if !rep.Succeeded() {
		t.Fatalf("covering scenario found no violation across %d slots", len(rep.Decisions))
	}
}

func TestCoveringLargerStacks(t *testing.T) {
	// n = 6 with l = 3: stacks of n-3t+1 = 4 processes.
	tFaults := 1
	alg, err := classical.NewEIGUnchecked(3, tFaults, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := hom.Params{N: 6, L: 3, T: tFaults, Synchrony: hom.Synchronous}
	factory, err := synchom.New(alg, p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := attacks.Covering(p, factory, synchom.Rounds(alg)+6)
	if err != nil {
		t.Fatalf("Covering: %v", err)
	}
	if !rep.Succeeded() {
		t.Fatal("covering scenario found no violation")
	}
}

func TestCoveringRejectsWrongRegion(t *testing.T) {
	alg, _ := classical.NewEIG(4, 1, nil)
	p := hom.Params{N: 5, L: 4, T: 1, Synchrony: hom.Synchronous}
	factory, err := synchom.New(alg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attacks.Covering(p, factory, 32); err == nil {
		t.Fatal("Covering accepted l != 3t")
	}
}

// --- Clone collapse (Theorem 19, experiment E9) ---------------------------

func TestCloneCollapseLockstep(t *testing.T) {
	// Innumerate + restricted: clones with equal inputs stay in lockstep,
	// under a clone-symmetric restricted Byzantine sender.
	tFaults := 1
	alg, err := classical.NewEIG(4, tFaults, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := hom.Params{
		N: 7, L: 4, T: tFaults,
		Synchrony:           hom.Synchronous,
		RestrictedByzantine: true,
	}
	factory, err := synchom.New(alg, p)
	if err != nil {
		t.Fatal(err)
	}
	// Identifier 1 is a clone group of 3 (slots 0..2, equal input);
	// slot 6 is the Byzantine sender (identifier 4).
	assignment := hom.Assignment{1, 1, 1, 2, 3, 4, 4}
	inputs := []hom.Value{1, 1, 1, 0, 1, 0, 0}
	rep, err := attacks.CloneCollapse(p, factory, assignment, inputs, 6, 3*synchom.Rounds(alg))
	if err != nil {
		t.Fatalf("CloneCollapse: %v", err)
	}
	if !rep.Lockstep() {
		t.Fatalf("clones diverged: %s", rep.Detail)
	}
	if len(rep.CloneSlots) != 3 {
		t.Fatalf("CloneSlots = %v, want 3 slots", rep.CloneSlots)
	}
}

func TestCloneCollapseRequiresInnumerate(t *testing.T) {
	p := hom.Params{
		N: 7, L: 4, T: 1,
		Synchrony:           hom.Synchronous,
		Numerate:            true,
		RestrictedByzantine: true,
	}
	if _, err := attacks.CloneCollapse(p, nil, nil, nil, 0, 8); err == nil {
		t.Fatal("CloneCollapse accepted numerate parameters")
	}
}

// --- Mirror adversary (Proposition 16 / Lemma 17, experiment E8) ---------

func TestMirrorIndistinguishability(t *testing.T) {
	// l = 2 = t: every identifier has a Byzantine twin. Configurations C
	// and C' differ only in slot 2's input; everyone else must decide
	// identically (or identically not decide) across the two runs.
	p := hom.Params{
		N: 8, L: 2, T: 2,
		Synchrony:           hom.Synchronous,
		Numerate:            true,
		RestrictedByzantine: true,
	}
	factory := psyncnum.NewUnchecked(p)
	assignment := hom.RoundRobinAssignment(8, 2)
	baseInputs := []hom.Value{0, 0, 0, 0, 1, 1, 1, 1}
	rep, err := attacks.Mirror(p, factory, assignment, baseInputs, 2, 0, 1, 12*psyncnum.RoundsPerPhase)
	if err != nil {
		t.Fatalf("Mirror: %v", err)
	}
	if !rep.Indistinguishable {
		t.Fatalf("Lemma-17 indistinguishability failed: %s", rep.Detail)
	}
}

func TestMirrorRejectsLargeL(t *testing.T) {
	p := hom.Params{
		N: 8, L: 3, T: 2,
		Synchrony:           hom.Synchronous,
		Numerate:            true,
		RestrictedByzantine: true,
	}
	if _, err := attacks.Mirror(p, nil, nil, nil, 0, 0, 1, 8); err == nil {
		t.Fatal("Mirror accepted l > t")
	}
}

// --- Ablation A1: the vote superround (Lemma 8) ---------------------------

func TestSplitLockVoteRoundPreventsConflictingAcks(t *testing.T) {
	rep, err := attacks.SplitLock(psynchom.Options{}, 1, 14*psynchom.RoundsPerPhase)
	if err != nil {
		t.Fatalf("SplitLock(full): %v", err)
	}
	if !rep.LemmaEightHolds() {
		t.Fatalf("with votes, correct processes acked conflicting values in phases %v", rep.ConflictPhases)
	}
	if !rep.Verdict.OK() {
		t.Fatalf("full algorithm failed under split-lock adversary: %s", rep.Verdict)
	}
}

func TestSplitLockAblationExhibitsConflictingAcks(t *testing.T) {
	rep, err := attacks.SplitLock(psynchom.Options{DisableVote: true}, 1, 14*psynchom.RoundsPerPhase)
	if err != nil {
		t.Fatalf("SplitLock(no-vote): %v", err)
	}
	if rep.LemmaEightHolds() {
		t.Fatal("without votes, the equivocating leader failed to split the acks — expected a Lemma-8 violation")
	}
	found := false
	for _, phase := range rep.ConflictPhases {
		if phase == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("conflict did not land in the targeted phase: %v", rep.ConflictPhases)
	}
}

// --- Ablation A2: the decide relay (termination latency) ------------------

func TestRelayLatencyGap(t *testing.T) {
	const l = 6
	maxRounds := psynchom.RoundsPerPhase * (3*l + 6)
	withRelay, err := attacks.RelayLatency(l, psynchom.Options{}, maxRounds)
	if err != nil {
		t.Fatalf("RelayLatency(full): %v", err)
	}
	if !withRelay.Verdict.OK() {
		t.Fatalf("full algorithm failed: %s", withRelay.Verdict)
	}
	without, err := attacks.RelayLatency(l, psynchom.Options{DisableDecideRelay: true}, maxRounds)
	if err != nil {
		t.Fatalf("RelayLatency(no-relay): %v", err)
	}
	if !without.Verdict.OK() {
		t.Fatalf("no-relay run failed outright: %s", without.Verdict)
	}
	if without.SpreadPhases <= withRelay.SpreadPhases {
		t.Fatalf("expected the relay to shrink the decision spread: with=%d phases, without=%d phases",
			withRelay.SpreadPhases, without.SpreadPhases)
	}
}

// --- Crossover anomaly (experiment E10) ------------------------------------

func TestCrossoverAnomaly(t *testing.T) {
	// t = 1, l = 4: solvable at n = 4, attackable at n = 5 — the paper's
	// "more correct processes can hurt" headline.
	p4 := partitionParams(4, 4, 1)
	factory4, err := psynchom.New(p4, psynchom.Options{})
	if err != nil {
		t.Fatalf("psynchom.New(n=4): %v", err)
	}
	inputs := []hom.Value{0, 1, 0, 1}
	res, err := engine.Run(
		engine.WithParams(p4),
		engine.WithAssignment(hom.RoundRobinAssignment(4, 4)),
		engine.WithInputs(inputs...),
		engine.WithProcess(factory4),
		engine.WithGST(1),
		engine.WithRounds(psynchom.SuggestedMaxRounds(p4, 1)),
	)
	if err != nil {
		t.Fatalf("engine.Run: %v", err)
	}
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("n=4 must be solvable: %s", v)
	}

	p5 := partitionParams(5, 4, 1)
	factory5 := psynchom.NewUnchecked(p5, psynchom.Options{})
	rep, err := attacks.Partition(p5, factory5, 12*psynchom.RoundsPerPhase)
	if err != nil {
		t.Fatalf("Partition(n=5): %v", err)
	}
	if !rep.Succeeded() {
		t.Fatalf("n=5 attack failed: %s", rep.Verdict)
	}
}
