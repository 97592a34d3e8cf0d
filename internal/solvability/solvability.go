// Package solvability regenerates the paper's Table 1 empirically
// (experiment E1). For every cell of a parameter grid it either runs the
// matching agreement algorithm under an adversary suite and checks all
// three correctness properties ("solvable" cells), or runs the matching
// lower-bound construction and checks that a violation is exhibited
// ("unsolvable" cells). Unsolvable cells that are not directly at an
// attack boundary are covered by identifier monotonicity: removing
// identifiers never makes agreement easier, so a violation at the
// boundary ℓ′ ≥ ℓ covers the cell (the reports say so explicitly).
package solvability

import (
	"fmt"

	"homonyms/internal/adversary"
	"homonyms/internal/attacks"
	"homonyms/internal/classical"
	"homonyms/internal/core"
	"homonyms/internal/engine"
	"homonyms/internal/exec"
	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/psynchom"
	"homonyms/internal/psyncnum"
	"homonyms/internal/synchom"
	"homonyms/internal/trace"
)

// Outcome classifies a cell's empirical result.
type Outcome int

const (
	// Solved: the selected algorithm satisfied validity, agreement and
	// termination across the whole adversary suite.
	Solved Outcome = iota + 1
	// Violated: the matching attack exhibited a property violation.
	Violated
	// CoveredByBoundary: the cell is unsolvable and is covered by a
	// boundary cell's attack (identifier monotonicity).
	CoveredByBoundary
	// Mismatch: the experiment contradicted Table 1 — this must never
	// happen and fails the harness.
	Mismatch
	// Failed: the cell's evaluation itself broke (an error or a panic
	// recovered by the worker pool). The cell carries the error text;
	// every other cell of the matrix is unaffected.
	Failed
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Solved:
		return "solved"
	case Violated:
		return "violated"
	case CoveredByBoundary:
		return "covered-by-boundary"
	case Mismatch:
		return "MISMATCH"
	case Failed:
		return "FAILED"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Cell is the empirical result for one parameter combination.
type Cell struct {
	Params hom.Params
	// Expect is Table 1's prediction.
	Expect bool
	// Outcome is the empirical classification.
	Outcome Outcome
	// Detail explains the outcome (suite size, attack name, boundary
	// reference, or the observed violation).
	Detail string
	// WorstDecisionRound is the slowest decision over the positive suite
	// (0 for negative cells).
	WorstDecisionRound int
	// MessagesDelivered sums deliveries over the positive suite.
	MessagesDelivered int
}

// SuiteSize configures how many assignment/adversary combinations the
// positive suite runs per cell.
type SuiteSize struct {
	Assignments int
	Behaviors   int
	// Crashes adds a crash-vs-Byzantine band to each solvable cell: for
	// every c in 1..min(Crashes, t), one extra run replaces c of the t
	// Byzantine slots with injected crash-recovery faults. The claim
	// must keep holding (crashes are Byzantine-simulable), so a
	// violation in the band is a Mismatch like any other. 0 disables
	// the band.
	Crashes int
}

// DefaultSuite is a balanced suite for grid sweeps.
func DefaultSuite() SuiteSize { return SuiteSize{Assignments: 2, Behaviors: 3} }

// EvaluateCell runs one cell of the matrix.
func EvaluateCell(p hom.Params, suite SuiteSize, seed int64) (*Cell, error) {
	cell := &Cell{Params: p, Expect: p.Solvable()}
	if cell.Expect {
		return evaluateSolvable(cell, p, suite, seed)
	}
	return evaluateUnsolvable(cell, p, seed)
}

func behaviors(seed int64, k int) []adversary.Behavior {
	all := []adversary.Behavior{
		adversary.Equivocate{Seed: seed},
		adversary.Silent{},
		adversary.MimicFlood{},
		adversary.Noise{Seed: seed},
	}
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func evaluateSolvable(cell *Cell, p hom.Params, suite SuiteSize, seed int64) (*Cell, error) {
	assignments := []hom.Assignment{hom.RoundRobinAssignment(p.N, p.L)}
	if suite.Assignments > 1 {
		assignments = append(assignments, hom.StackedAssignment(p.N, p.L))
	}
	for i := 2; i < suite.Assignments; i++ {
		assignments = append(assignments, hom.RandomAssignment(p.N, p.L, seed+int64(i)))
	}
	behs := behaviors(seed, suite.Behaviors)
	if p.T == 0 {
		behs = []adversary.Behavior{nil}
	}
	gst := 1
	if p.Synchrony == hom.PartiallySynchronous {
		gst = 2 * p.L * 2 // a pre-GST window with drops, then stabilisation
	}
	runs := 0
	for ai, a := range assignments {
		for bi, beh := range behs {
			inputs := make([]hom.Value, p.N)
			for j := range inputs {
				inputs[j] = hom.Value((j + ai + bi) % 2)
			}
			var adv engine.Adversary
			if beh != nil {
				comp := &adversary.Composite{
					Selector: adversary.RandomT{Seed: seed + int64(ai*7+bi)},
					Behavior: beh,
				}
				if p.Synchrony == hom.PartiallySynchronous && !p.RestrictedByzantine {
					comp.Drops = adversary.RandomDrops{Seed: seed + int64(bi), Prob: 0.5}
				}
				adv = comp
			}
			res, err := core.Run(core.Config{
				Params:     p,
				Assignment: a,
				Inputs:     inputs,
				Adversary:  adv,
				GST:        gst,
			})
			if err != nil {
				return nil, fmt.Errorf("cell %v: %w", p, err)
			}
			runs++
			if !res.Verdict.OK() {
				cell.Outcome = Mismatch
				cell.Detail = fmt.Sprintf("expected solvable but run %d failed: %s", runs, res.Verdict)
				return cell, nil
			}
			if r := trace.LatestDecisionRound(res.Sim); r > cell.WorstDecisionRound {
				cell.WorstDecisionRound = r
			}
			cell.MessagesDelivered += res.Sim.Stats.MessagesDelivered
		}
	}
	// Crash-vs-Byzantine band: trade c of the t Byzantine slots for c
	// injected crash-recovery faults. The combined count stays within t,
	// so Table 1 still predicts solvable — the band checks that the
	// implementations really do treat a crash as a cheaper-than-Byzantine
	// failure, at every exchange rate the suite asks for.
	for c := 1; c <= suite.Crashes && c <= p.T; c++ {
		byz := p.T - c
		inputs := make([]hom.Value, p.N)
		for j := range inputs {
			inputs[j] = hom.Value(j % 2)
		}
		var adv engine.Adversary
		if byz > 0 {
			slots := make(adversary.Slots, byz)
			for i := range slots {
				slots[i] = i
			}
			adv = &adversary.Composite{
				Selector: slots,
				Behavior: adversary.Equivocate{Seed: seed + int64(c)},
			}
		}
		crashes := make([]inject.Crash, c)
		for i := range crashes {
			// Crash from the top of the slot range (disjoint from the
			// Byzantine slots at the bottom), spanning rounds 2..4.
			crashes[i] = inject.Crash{Slot: p.N - 1 - i, Round: 2, Recover: 3}
		}
		res, err := core.Run(core.Config{
			Params:    p,
			Inputs:    inputs,
			Adversary: adv,
			GST:       gst,
			Faults:    &inject.Schedule{Crashes: crashes},
		})
		if err != nil {
			return nil, fmt.Errorf("cell %v (crash band c=%d): %w", p, c, err)
		}
		runs++
		if !res.Verdict.OK() {
			cell.Outcome = Mismatch
			cell.Detail = fmt.Sprintf("crash band failed at %d byz + %d crashed (t=%d): %s", byz, c, p.T, res.Verdict)
			return cell, nil
		}
		cell.MessagesDelivered += res.Sim.Stats.MessagesDelivered
	}
	cell.Outcome = Solved
	cell.Detail = fmt.Sprintf("suite of %d adversarial runs all satisfied the specification", runs)
	return cell, nil
}

func evaluateUnsolvable(cell *Cell, p hom.Params, seed int64) (*Cell, error) {
	switch row := p.Row(); {
	case row == hom.RowResilience:
		cell.Outcome = CoveredByBoundary
		cell.Detail = "n <= 3t: classical resilience bound [Pease-Shostak-Lamport], below every homonym bound"
		return cell, nil

	case row == hom.RowNumerate:
		// l <= t: the mirror experiment (Proposition 16 / Lemma 17).
		factory := psyncnum.New(p)
		assignment := hom.RoundRobinAssignment(p.N, p.L)
		baseInputs := make([]hom.Value, p.N)
		for i := p.N / 2; i < p.N; i++ {
			baseInputs[i] = 1
		}
		flipped := p.L // first slot of the second rotation holds identifier 1 again
		if flipped >= p.N {
			flipped = p.N - 1
		}
		rep, err := attacks.Mirror(p, factory, assignment, baseInputs, flipped, 0, 1,
			hom.PhaseRounds(p, 1))
		if err != nil {
			return nil, err
		}
		if rep.Indistinguishable {
			cell.Outcome = Violated
			cell.Detail = "mirror twins made input-adjacent configurations indistinguishable (Lemma 17); the valency argument of Proposition 16 applies"
		} else {
			cell.Outcome = Mismatch
			cell.Detail = "mirror experiment failed to establish indistinguishability: " + rep.Detail
		}
		return cell, nil

	case row == hom.RowPsync && p.L > 3*p.T:
		// 3t < l <= (n+3t)/2: the Figure-4 partition attack.
		factory := psynchom.New(p, psynchom.Options{})
		rep, err := attacks.Partition(p, factory, 12*hom.RoundsPerPhase)
		if err != nil {
			return nil, err
		}
		if rep.Succeeded() {
			cell.Outcome = Violated
			cell.Detail = "partition attack (Figure 4): " + rep.Verdict.String()
		} else {
			cell.Outcome = Mismatch
			cell.Detail = "partition attack did not violate agreement: " + rep.Verdict.String()
		}
		return cell, nil

	case p.L == 3*p.T:
		// The synchronous boundary: the Figure-1 covering scenario.
		alg, err := classical.NewEIGUnchecked(p.L, p.T, p.EffectiveDomain())
		if err != nil {
			return nil, err
		}
		syncP := p
		syncP.Synchrony = hom.Synchronous
		factory, err := synchom.New(alg, syncP)
		if err != nil {
			return nil, err
		}
		rep, err := attacks.Covering(syncP, factory, synchom.Rounds(alg)+6)
		if err != nil {
			return nil, err
		}
		if rep.Succeeded() {
			cell.Outcome = Violated
			cell.Detail = fmt.Sprintf("covering scenario (Figure 1): %v", rep.Violations[0])
		} else {
			cell.Outcome = Mismatch
			cell.Detail = "covering scenario found no violation"
		}
		return cell, nil

	default:
		// l < 3t: covered by the l = 3t boundary via identifier
		// monotonicity.
		cell.Outcome = CoveredByBoundary
		cell.Detail = fmt.Sprintf("covered by the l = 3t = %d covering-scenario boundary (fewer identifiers are strictly weaker)", 3*p.T)
		return cell, nil
	}
}

// Variant selects the model flags for a grid sweep.
type Variant struct {
	Name                string
	Synchrony           hom.Synchrony
	Numerate            bool
	RestrictedByzantine bool
}

// Variants returns the four Table-1 rows/columns as sweepable variants.
func Variants() []Variant {
	return []Variant{
		{Name: "sync/innumerate/unrestricted", Synchrony: hom.Synchronous},
		{Name: "psync/innumerate/unrestricted", Synchrony: hom.PartiallySynchronous},
		{Name: "sync/numerate/restricted", Synchrony: hom.Synchronous, Numerate: true, RestrictedByzantine: true},
		{Name: "psync/numerate/restricted", Synchrony: hom.PartiallySynchronous, Numerate: true, RestrictedByzantine: true},
	}
}

// GridParams enumerates the valid cells of a (n, t, l) grid for one
// variant, in the deterministic order Matrix reports them. Cells whose
// parameters fail validation (l > n) are skipped.
func GridParams(ns, ts []int, v Variant) []hom.Params {
	var out []hom.Params
	for _, n := range ns {
		for _, t := range ts {
			for l := 1; l <= n; l++ {
				p := hom.Params{
					N: n, L: l, T: t,
					Synchrony:           v.Synchrony,
					Numerate:            v.Numerate,
					RestrictedByzantine: v.RestrictedByzantine,
				}
				if p.Validate() != nil {
					continue
				}
				out = append(out, p)
			}
		}
	}
	return out
}

// BoundaryParams enumerates the tuples straddling the variant's Table-1
// thresholds for the given process counts: for each n it takes
// t = floor(n/3) ± 1 (clamped to valid fault bounds) and, for each such t,
// the identifier counts one below, at, and one above the variant's
// solvability threshold. These are the cells where a misclassified
// expectation is most likely, so the fuzzer samples them preferentially
// and the classification tests sweep them exhaustively.
func BoundaryParams(ns []int, v Variant) []hom.Params {
	var out []hom.Params
	seen := map[string]bool{}
	add := func(p hom.Params) {
		if p.Validate() == nil && !seen[p.String()] {
			seen[p.String()] = true
			out = append(out, p)
		}
	}
	for _, n := range ns {
		for _, t := range []int{n/3 - 1, n / 3, n/3 + 1} {
			if t < 0 || t >= n {
				continue
			}
			// The variant's critical identifier count: l > t for the
			// numerate+restricted row, l > 3t synchronous, 2l > n+3t
			// partially synchronous.
			var crit int
			switch {
			case v.Numerate && v.RestrictedByzantine:
				crit = t + 1
			case v.Synchrony == hom.Synchronous:
				crit = 3*t + 1
			default:
				crit = (n+3*t)/2 + 1
			}
			for _, l := range []int{crit - 1, crit, crit + 1} {
				add(hom.Params{
					N: n, L: l, T: t,
					Synchrony:           v.Synchrony,
					Numerate:            v.Numerate,
					RestrictedByzantine: v.RestrictedByzantine,
				})
			}
		}
	}
	return out
}

// CellCost estimates the relative evaluation cost of one grid cell, for
// cost-weighted scheduling. The estimate mirrors EvaluateCell's shape:
// a solvable cell runs the whole positive suite (assignments ×
// behaviors) of executions whose per-round delivery work is O(n²) and
// whose round budgets grow with ℓ (partially synchronous phase cycles)
// and t (EIG depth); an unsolvable cell runs one attack construction,
// unless it is covered by a boundary, in which case it is practically
// free. Only the ordering of costs matters — the scheduler uses them as
// hints, never in results.
func CellCost(p hom.Params, suite SuiteSize) int64 {
	nn := int64(p.N) * int64(p.N)
	rounds := int64(4*p.L + 8*p.T + 16)
	switch row := p.Row(); {
	case p.Solvable():
		runs := int64(suite.Assignments) * int64(suite.Behaviors)
		if runs < 1 {
			runs = 1
		}
		if band := min(suite.Crashes, p.T); band > 0 {
			runs += int64(band)
		}
		return nn * rounds * runs
	case row == hom.RowResilience:
		return 1 // covered by the classical bound, no execution
	case row == hom.RowNumerate, row == hom.RowPsync && p.L > 3*p.T, p.L == 3*p.T:
		return nn * rounds // one attack construction
	default:
		return 1 // covered by the l = 3t boundary, no execution
	}
}

// Matrix evaluates a full (n, t, l) grid for one variant. The cells are
// independent deterministic executions, so they are fanned across
// exec.Workers() workers with cost-weighted scheduling (largest
// CellCost first — the big-n solvable cells no longer queue behind a
// pool drained by cheap boundary cells); the result order (and every
// cell's content) is identical to a sequential evaluation.
func Matrix(ns, ts []int, v Variant, suite SuiteSize, seed int64) ([]*Cell, error) {
	params := GridParams(ns, ts, v)
	cells, errs := exec.MapWeightedCollect(params, exec.Workers(),
		func(_ int, p hom.Params) int64 { return CellCost(p, suite) },
		func(_ int, p hom.Params) (*Cell, error) {
			return EvaluateCell(p, suite, seed)
		})
	// A cell whose evaluation errored or panicked (recovered into an
	// exec.PanicError by the pool) degrades to a Failed cell instead of
	// poisoning the matrix: every other cell is byte-identical to a
	// failure-free evaluation.
	for i, err := range errs {
		if err != nil {
			cells[i] = &Cell{
				Params:  params[i],
				Expect:  params[i].Solvable(),
				Outcome: Failed,
				Detail:  err.Error(),
			}
		}
	}
	return cells, nil
}

// Consistent reports whether every cell's empirical outcome matches its
// Table-1 prediction (no Mismatch or Failed entries).
func Consistent(cells []*Cell) (bool, *Cell) {
	for _, c := range cells {
		if c.Outcome == Mismatch || c.Outcome == Failed {
			return false, c
		}
	}
	return true, nil
}
