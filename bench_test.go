// Benchmark harness: one target per table and figure of the paper, as
// indexed in DESIGN.md §3. The benches measure end-to-end executions of
// the reproduced artifacts — positive algorithm runs for the solvable
// cells, lower-bound constructions for the impossible ones — and report
// decision rounds alongside the usual time/allocation metrics, so the
// *shape* of the paper's results (who wins, where the boundary sits) can
// be read straight from the bench output.
package homonyms_test

import (
	"fmt"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/attacks"
	"homonyms/internal/classical"
	"homonyms/internal/core"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/numbcast"
	"homonyms/internal/psynchom"
	"homonyms/internal/psyncnum"
	"homonyms/internal/synchom"
	"homonyms/internal/trace"
)

// runSolvable executes one adversarial instance through the façade and
// fails the bench on any property violation.
func runSolvable(b *testing.B, p hom.Params, gst int, seed int64) *core.Result {
	b.Helper()
	inputs := make([]hom.Value, p.N)
	for i := range inputs {
		inputs[i] = hom.Value(i % 2)
	}
	adv := &adversary.Composite{
		Selector: adversary.RandomT{Seed: seed},
		Behavior: adversary.Equivocate{Seed: seed},
	}
	if p.Synchrony == hom.PartiallySynchronous && !p.RestrictedByzantine {
		adv.Drops = adversary.RandomDrops{Seed: seed, Prob: 0.4}
	}
	res, err := core.Run(core.Config{Params: p, Inputs: inputs, Adversary: adv, GST: gst})
	if err != nil {
		b.Fatal(err)
	}
	if !res.Verdict.OK() {
		b.Fatalf("%v: %s", p, res.Verdict)
	}
	return res
}

// --- E2: Figure 1 (synchronous lower bound l > 3t) ------------------------

func BenchmarkFig1Covering(b *testing.B) {
	tFaults := 1
	p := hom.Params{N: 4, L: 3 * tFaults, T: tFaults, Synchrony: hom.Synchronous}
	alg, err := classical.NewEIGUnchecked(p.L, p.T, nil)
	if err != nil {
		b.Fatal(err)
	}
	factory, err := synchom.New(alg, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := attacks.Covering(p, factory, synchom.Rounds(alg)+6)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Succeeded() {
			b.Fatal("covering scenario found no violation")
		}
	}
}

// --- E3: Figures 2–3 (T(A) transformation and classical baselines) --------

func BenchmarkFig3TransformEIG(b *testing.B) {
	for _, size := range []struct{ n, l, t int }{
		{7, 4, 1}, {10, 4, 1}, {10, 7, 2},
	} {
		b.Run(fmt.Sprintf("n%d_l%d_t%d", size.n, size.l, size.t), func(b *testing.B) {
			p := hom.Params{N: size.n, L: size.l, T: size.t, Synchrony: hom.Synchronous}
			var rounds int
			for i := 0; i < b.N; i++ {
				res := runSolvable(b, p, 1, int64(i))
				rounds = trace.LatestDecisionRound(res.Sim)
			}
			b.ReportMetric(float64(rounds), "decision-rounds")
		})
	}
}

func BenchmarkFig3ClassicalBaselineEIG(b *testing.B) {
	// The l = n baseline the transformation is compared against: T(A)
	// costs exactly 3x the substrate's rounds plus the deciding relay.
	alg, err := classical.NewEIG(7, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := hom.Params{N: 7, L: 7, T: 2, Synchrony: hom.Synchronous}
	inputs := make([]hom.Value, 7)
	for i := range inputs {
		inputs[i] = hom.Value(i % 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.Run(
			engine.WithParams(p),
			engine.WithAssignment(hom.RoundRobinAssignment(7, 7)),
			engine.WithInputs(inputs...),
			engine.WithProcess(func(int) engine.Process { return classical.NewProcess(alg) }),
			engine.WithAdversary(&adversary.Composite{
				Selector: adversary.RandomT{Seed: int64(i)},
				Behavior: adversary.Equivocate{Seed: int64(i)},
			}),
			engine.WithRounds(alg.DecisionRound()+2),
		)
		if err != nil {
			b.Fatal(err)
		}
		if v := trace.Check(res); !v.OK() {
			b.Fatalf("%s", v)
		}
	}
}

func BenchmarkFig3TransformPhaseKing(b *testing.B) {
	alg, err := classical.NewPhaseKing(5, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := hom.Params{N: 9, L: 5, T: 1, Synchrony: hom.Synchronous}
	factory, err := synchom.New(alg, p)
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]hom.Value, p.N)
	for i := range inputs {
		inputs[i] = hom.Value(i % 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.Run(
			engine.WithParams(p),
			engine.WithAssignment(hom.StackedAssignment(p.N, p.L)),
			engine.WithInputs(inputs...),
			engine.WithProcess(factory),
			engine.WithAdversary(&adversary.Composite{
				Selector: adversary.Slots{2},
				Behavior: adversary.Equivocate{Seed: int64(i)},
			}),
			engine.WithRounds(synchom.Rounds(alg)+3),
		)
		if err != nil {
			b.Fatal(err)
		}
		if v := trace.Check(res); !v.OK() {
			b.Fatalf("%s", v)
		}
	}
}

// --- E4: Figure 4 (partially synchronous lower bound) ----------------------

func BenchmarkFig4Partition(b *testing.B) {
	p := hom.Params{N: 5, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}
	factory := psynchom.NewUnchecked(p, psynchom.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := attacks.Partition(p, factory, 12*psynchom.RoundsPerPhase)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Succeeded() {
			b.Fatal("partition attack failed")
		}
	}
}

// --- E5: Figure 5 (partially synchronous homonym agreement) ----------------

func BenchmarkFig5PsyncHomonym(b *testing.B) {
	for _, size := range []struct {
		n, l, t, gst int
	}{
		{4, 4, 1, 1}, {6, 5, 1, 1}, {6, 5, 1, 17}, {11, 9, 2, 1},
	} {
		name := fmt.Sprintf("n%d_l%d_t%d_gst%d", size.n, size.l, size.t, size.gst)
		b.Run(name, func(b *testing.B) {
			p := hom.Params{N: size.n, L: size.l, T: size.t, Synchrony: hom.PartiallySynchronous}
			var rounds int
			for i := 0; i < b.N; i++ {
				res := runSolvable(b, p, size.gst, int64(i))
				rounds = trace.LatestDecisionRound(res.Sim)
			}
			b.ReportMetric(float64(rounds), "decision-rounds")
		})
	}
}

// --- E6: Figure 6 (multiplicity broadcast) ---------------------------------

func BenchmarkFig6NumBroadcast(b *testing.B) {
	// One broadcaster processing a full superround of bundles from a
	// 7-process, 2-identifier system (three clones per identifier plus a
	// restricted Byzantine copy).
	body := msg.Raw("payload")
	initBundle := numbcast.NewBundle([]numbcast.InitTuple{{Body: body}}, nil)
	echoBundle := numbcast.NewBundle(nil, []numbcast.EchoTuple{{H: 1, A: 3, Body: body, K: 1}})
	round1 := []numbcast.Delivery{{ID: 1, Bundle: initBundle, Copies: 3}}
	round2 := []numbcast.Delivery{{ID: 1, Bundle: echoBundle, Copies: 3}, {ID: 2, Bundle: echoBundle, Copies: 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, err := numbcast.New(7, 2, 2)
		if err != nil {
			b.Fatal(err)
		}
		bc.Broadcast(body)
		if bc.Outgoing(1) == nil {
			b.Fatal("no outgoing bundle")
		}
		bc.Ingest(1, round1)
		accepts := bc.Ingest(2, round2)
		if len(accepts) == 0 {
			b.Fatal("no accepts")
		}
	}
}

// --- E7: Figure 7 (numerate restricted agreement, l > t) -------------------

func BenchmarkFig7Numerate(b *testing.B) {
	for _, size := range []struct{ n, l, t int }{
		{7, 2, 1}, {7, 3, 2}, {10, 3, 2},
	} {
		b.Run(fmt.Sprintf("n%d_l%d_t%d", size.n, size.l, size.t), func(b *testing.B) {
			p := hom.Params{
				N: size.n, L: size.l, T: size.t,
				Synchrony:           hom.PartiallySynchronous,
				Numerate:            true,
				RestrictedByzantine: true,
			}
			var rounds int
			for i := 0; i < b.N; i++ {
				res := runSolvable(b, p, 1, int64(i))
				rounds = trace.LatestDecisionRound(res.Sim)
			}
			b.ReportMetric(float64(rounds), "decision-rounds")
		})
	}
}

// --- E8: Proposition 16 (mirror adversary at l <= t) -----------------------

func BenchmarkMirrorAttack(b *testing.B) {
	p := hom.Params{
		N: 8, L: 2, T: 2,
		Synchrony:           hom.Synchronous,
		Numerate:            true,
		RestrictedByzantine: true,
	}
	factory := psyncnum.NewUnchecked(p)
	assignment := hom.RoundRobinAssignment(8, 2)
	baseInputs := []hom.Value{0, 0, 0, 0, 1, 1, 1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := attacks.Mirror(p, factory, assignment, baseInputs, 2, 0, 1, 12*psyncnum.RoundsPerPhase)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Indistinguishable {
			b.Fatal("mirror indistinguishability failed")
		}
	}
}

// --- E9: Theorem 19 (clone collapse) ---------------------------------------

func BenchmarkCloneCollapse(b *testing.B) {
	alg, err := classical.NewEIG(4, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous, RestrictedByzantine: true}
	factory, err := synchom.New(alg, p)
	if err != nil {
		b.Fatal(err)
	}
	assignment := hom.Assignment{1, 1, 1, 2, 3, 4, 4}
	inputs := []hom.Value{1, 1, 1, 0, 1, 0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := attacks.CloneCollapse(p, factory, assignment, inputs, 6, 3*synchom.Rounds(alg))
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Lockstep() {
			b.Fatal("clones diverged")
		}
	}
}

// --- E10: the crossover anomaly --------------------------------------------

func BenchmarkCrossover(b *testing.B) {
	p4 := hom.Params{N: 4, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}
	p5 := hom.Params{N: 5, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}
	factory5 := psynchom.NewUnchecked(p5, psynchom.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runSolvable(b, p4, 1, int64(i))
		if !res.Decided {
			b.Fatal("n=4 failed to decide")
		}
		rep, err := attacks.Partition(p5, factory5, 12*psynchom.RoundsPerPhase)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Succeeded() {
			b.Fatal("n=5 attack failed")
		}
	}
}

// --- A1/A2/A3: ablations ----------------------------------------------------

func BenchmarkAblationNoVote(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := attacks.SplitLock(psynchom.Options{DisableVote: true}, 1, 14*psynchom.RoundsPerPhase)
		if err != nil {
			b.Fatal(err)
		}
		if rep.LemmaEightHolds() {
			b.Fatal("ablation failed to split acks")
		}
	}
}

func BenchmarkAblationNoDecideRelay(b *testing.B) {
	const l = 6
	maxRounds := psynchom.RoundsPerPhase * (3*l + 6)
	var with, without int
	for i := 0; i < b.N; i++ {
		a, err := attacks.RelayLatency(l, psynchom.Options{}, maxRounds)
		if err != nil {
			b.Fatal(err)
		}
		c, err := attacks.RelayLatency(l, psynchom.Options{DisableDecideRelay: true}, maxRounds)
		if err != nil {
			b.Fatal(err)
		}
		with, without = a.SpreadPhases, c.SpreadPhases
		if without <= with {
			b.Fatal("relay ablation did not widen the decision spread")
		}
	}
	b.ReportMetric(float64(with), "spread-with-relay")
	b.ReportMetric(float64(without), "spread-without-relay")
}

func BenchmarkAblationInnumerate(b *testing.B) {
	// A3: run the Figure-7 machinery with innumerate reception at
	// l = t+1. Multiplicities collapse to 1, witness totals starve below
	// n-t, and the system must fail to terminate — the flip side of
	// Theorem 19 (numeracy is essential against restricted adversaries
	// below 3t+1 identifiers).
	p := hom.Params{
		N: 7, L: 2, T: 1,
		Synchrony:           hom.PartiallySynchronous,
		Numerate:            false, // the ablation
		RestrictedByzantine: true,
	}
	factory := psyncnum.NewUnchecked(p)
	inputs := make([]hom.Value, p.N)
	for i := range inputs {
		inputs[i] = hom.Value(i % 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.Run(
			engine.WithParams(p),
			engine.WithAssignment(hom.RoundRobinAssignment(p.N, p.L)),
			engine.WithInputs(inputs...),
			engine.WithProcess(factory),
			engine.WithGST(1),
			engine.WithRounds(psyncnum.SuggestedMaxRounds(p, 1)),
		)
		if err != nil {
			b.Fatal(err)
		}
		if res.AllDecided {
			b.Fatal("innumerate ablation unexpectedly terminated")
		}
	}
}
