// Package solvability regenerates the paper's Table 1 empirically
// (experiment E1). For every cell of a parameter grid it either runs the
// matching agreement algorithm over a suite of adversarial fuzz
// scenarios and checks all three correctness properties ("solvable"
// cells; a failing scenario is reported as a seed cmd/fuzz -replay
// runs), or runs the matching lower-bound construction and checks that
// a violation is exhibited ("unsolvable" cells). Unsolvable cells that
// are not directly at an attack boundary are covered by identifier
// monotonicity: removing identifiers never makes agreement easier, so a
// violation at the boundary ℓ′ ≥ ℓ covers the cell (the reports say so
// explicitly).
package solvability

import (
	"encoding/json"
	"fmt"

	"homonyms/internal/adversary"
	"homonyms/internal/attacks"
	"homonyms/internal/classical"
	"homonyms/internal/core"
	"homonyms/internal/engine"
	"homonyms/internal/exec"
	"homonyms/internal/fuzz"
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
	// Assignments is 1 (round-robin) or 2 (round-robin, then stacked).
	Assignments int
	// Behaviors is 1 to 3: the first k of Equivocate, Silent, MimicFlood.
	Behaviors int
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
func EvaluateCell(p hom.Params, size SuiteSize, seed int64) (*Cell, error) {
	cell := &Cell{Params: p, Expect: p.Solvable()}
	if cell.Expect {
		return evaluateSolvable(cell, suite(p, size, seed))
	}
	return evaluateUnsolvable(cell, p)
}

// suite lists the executions a solvable cell runs, as replayable
// scenarios of the row's protoreg entry: every assignment × behavior
// pair (one fault-free run per assignment at t = 0), then the crash
// band. Each pair corrupts the slots RandomT draws from its own seed.
func suite(p hom.Params, size SuiteSize, seed int64) []fuzz.Scenario {
	gst := 1
	if p.Synchrony == hom.PartiallySynchronous {
		gst = 2 * p.L * 2 // a pre-GST window with drops, then stabilisation
	}
	scenario := func(inputShift int, advSeed int64) fuzz.Scenario {
		sc := fuzz.NewScenario(core.Protocol(p.Row()), p)
		for j := range sc.Inputs {
			sc.Inputs[j] = (j + inputShift) % 2
		}
		sc.GST, sc.AdvSeed = gst, advSeed
		return sc
	}
	assignments := []string{"roundrobin", "stacked"}[:min(max(size.Assignments, 1), 2)]
	behaviors := []string{"equivocate", "silent", "mimicflood"}[:min(size.Behaviors, 3)]
	if p.T == 0 {
		behaviors = []string{""}
	}
	out := make([]fuzz.Scenario, 0, suiteLen(p, size))
	for ai, a := range assignments {
		for bi, b := range behaviors {
			sc := scenario(ai+bi, seed)
			sc.Assignment = a
			if b != "" {
				slots := adversary.RandomT{Seed: seed + int64(ai*7+bi)}.Select(p, nil, nil)
				sc.Selector = fuzz.SelectorSpec{Kind: "slots", Slots: slots}
				sc.Behavior.Kind = b
				if sc.Psync && !p.RestrictedByzantine {
					sc.Drops = fuzz.DropSpec{Kind: "random", Seed: seed + int64(bi), Prob: 0.5}
				}
			}
			out = append(out, sc)
		}
	}
	// Crash-vs-Byzantine band: trade c of the t Byzantine slots for c
	// injected crash-recovery faults. The combined count stays within t,
	// so Table 1 still predicts solvable — the band checks that the
	// implementations really do treat a crash as a cheaper-than-Byzantine
	// failure, at every exchange rate the suite asks for.
	for c := 1; c <= size.Crashes && c <= p.T; c++ {
		sc := scenario(0, seed+int64(c))
		if byz := p.T - c; byz > 0 {
			sc.Selector = fuzz.SelectorSpec{Kind: "slots", Slots: make([]int, byz)}
			for i := range sc.Selector.Slots {
				sc.Selector.Slots[i] = i
			}
			sc.Behavior.Kind = "equivocate"
		}
		sc.Faults = &inject.Schedule{Crashes: make([]inject.Crash, c)}
		for i := range sc.Faults.Crashes {
			// Crash from the top of the slot range (disjoint from the
			// Byzantine slots at the bottom), spanning rounds 2..4.
			sc.Faults.Crashes[i] = inject.Crash{Slot: p.N - 1 - i, Round: 2, Recover: 3}
		}
		out = append(out, sc)
	}
	return out
}

// suiteLen is len(suite(p, size, seed)) in closed form: assignments ×
// behaviors, then the crash band.
func suiteLen(p hom.Params, size SuiteSize) int {
	behaviors := min(size.Behaviors, 3)
	if p.T == 0 {
		behaviors = 1
	}
	return min(max(size.Assignments, 1), 2)*behaviors + max(min(size.Crashes, p.T), 0)
}

// evaluateSolvable runs a solvable cell's suite in order. The first
// failing run makes the cell a Mismatch whose Detail ends with that run
// as a one-line seed file.
func evaluateSolvable(cell *Cell, runs []fuzz.Scenario) (*Cell, error) {
	p := cell.Params
	for i, sc := range runs {
		cfg, err := sc.Config()
		if err != nil {
			return nil, fmt.Errorf("cell %v: %w", p, err)
		}
		res, err := engine.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("cell %v: %w", p, err)
		}
		if v := trace.Check(res); !v.OK() {
			name := fmt.Sprintf("solvability-%s-n%d-l%d-t%d-run%d", sc.Protocol, p.N, p.L, p.T, i+1)
			// The suite's scenarios hold no value json.Marshal rejects.
			seed, _ := json.Marshal(fuzz.NewSeed(name, p.SolvabilityReason(), fuzz.Run(sc, fuzz.Options{})))
			cell.Outcome = Mismatch
			cell.Detail = fmt.Sprintf("expected solvable but run %d failed: %s; replay: %s", i+1, v, seed)
			return cell, nil
		}
		if sc.Faults == nil {
			cell.WorstDecisionRound = max(cell.WorstDecisionRound, trace.LatestDecisionRound(res))
		}
		cell.MessagesDelivered += res.Stats.MessagesDelivered
	}
	cell.Outcome = Solved
	cell.Detail = fmt.Sprintf("suite of %d adversarial runs all satisfied the specification", len(runs))
	return cell, nil
}

// A construction is one of the paper's lower-bound experiments: it runs
// on an unsolvable cell and reports whether it exhibited the violation,
// with the detail the cell carries either way.
type construction func(p hom.Params) (violated bool, detail string, err error)

// lowerBound names the construction that witnesses an unsolvable cell,
// or nil when the cell is covered by a bound without an execution of its
// own. It is the one dispatch on Table-1 rows that EvaluateCell runs and
// CellCost charges for.
func lowerBound(p hom.Params) construction {
	switch row := p.Row(); {
	case row == hom.RowResilience:
		return nil // the classical n <= 3t bound
	case row == hom.RowNumerate:
		return mirror // l <= t
	case row == hom.RowPsync && p.L > 3*p.T:
		return partition // 3t < l <= (n+3t)/2
	case p.L == 3*p.T:
		return covering // the synchronous boundary
	default:
		return nil // l < 3t: covered by the l = 3t boundary
	}
}

func evaluateUnsolvable(cell *Cell, p hom.Params) (*Cell, error) {
	build := lowerBound(p)
	if build == nil {
		cell.Outcome = CoveredByBoundary
		if p.Row() == hom.RowResilience {
			cell.Detail = "n <= 3t: classical resilience bound [Pease-Shostak-Lamport], below every homonym bound"
		} else {
			// Identifier monotonicity: fewer identifiers are never easier.
			cell.Detail = fmt.Sprintf("covered by the l = 3t = %d covering-scenario boundary (fewer identifiers are strictly weaker)", 3*p.T)
		}
		return cell, nil
	}
	violated, detail, err := build(p)
	if err != nil {
		return nil, err
	}
	cell.Outcome = Mismatch
	if violated {
		cell.Outcome = Violated
	}
	cell.Detail = detail
	return cell, nil
}

// mirror is the l <= t experiment (Proposition 16 / Lemma 17): a
// Byzantine twin holding the flipped slot's identifier replays the
// correct algorithm on the mirrored input, and the two input-adjacent
// runs must be indistinguishable to every other correct process.
func mirror(p hom.Params) (bool, string, error) {
	baseInputs := make([]hom.Value, p.N)
	for i := p.N / 2; i < p.N; i++ {
		baseInputs[i] = 1
	}
	flipped := min(p.L, p.N-1) // first slot of the second rotation holds identifier 1 again
	rep, err := attacks.Mirror(p, psyncnum.New(p), hom.RoundRobinAssignment(p.N, p.L),
		baseInputs, flipped, 0, 1, hom.PhaseRounds(p, 1))
	if err != nil {
		return false, "", err
	}
	if !rep.Indistinguishable {
		return false, "mirror experiment failed to establish indistinguishability: " + rep.Detail, nil
	}
	return true, "mirror twins made input-adjacent configurations indistinguishable (Lemma 17); the valency argument of Proposition 16 applies", nil
}

// partition is the Figure-4 partition attack (Proposition 4).
func partition(p hom.Params) (bool, string, error) {
	rep, err := attacks.Partition(p, psynchom.New(p, psynchom.Options{}), 12*hom.RoundsPerPhase)
	if err != nil {
		return false, "", err
	}
	if !rep.Succeeded() {
		return false, "partition attack did not violate agreement: " + rep.Verdict.String(), nil
	}
	return true, "partition attack (Figure 4): " + rep.Verdict.String(), nil
}

// covering is the Figure-1 covering scenario (Proposition 1), run in
// the synchronous model whatever the cell's own.
func covering(p hom.Params) (bool, string, error) {
	alg, err := classical.NewEIGUnchecked(p.L, p.T, p.EffectiveDomain())
	if err != nil {
		return false, "", err
	}
	p.Synchrony = hom.Synchronous
	factory, err := synchom.New(alg, p)
	if err != nil {
		return false, "", err
	}
	rep, err := attacks.Covering(p, factory, synchom.Rounds(alg)+6)
	if err != nil {
		return false, "", err
	}
	if !rep.Succeeded() {
		return false, "covering scenario found no violation", nil
	}
	return true, fmt.Sprintf("covering scenario (Figure 1): %v", rep.Violations[0]), nil
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
// a solvable cell runs every scenario of its suite, executions whose
// per-round delivery work is O(n²) and
// whose round budgets grow with ℓ (partially synchronous phase cycles)
// and t (EIG depth); an unsolvable cell runs one attack construction,
// unless it is covered by a boundary, in which case it is practically
// free. Only the ordering of costs matters — the scheduler uses them as
// hints, never in results.
func CellCost(p hom.Params, size SuiteSize) int64 {
	nn := int64(p.N) * int64(p.N)
	rounds := int64(4*p.L + 8*p.T + 16)
	if p.Solvable() {
		return nn * rounds * int64(max(suiteLen(p, size), 1))
	}
	if lowerBound(p) != nil {
		return nn * rounds // one attack construction
	}
	return 1 // covered by a bound, no execution
}

// Matrix evaluates a full (n, t, l) grid for one variant. The cells are
// independent deterministic executions, so they are fanned across
// exec.Workers() workers with cost-weighted scheduling (largest
// CellCost first — the big-n solvable cells no longer queue behind a
// pool drained by cheap boundary cells); the result order (and every
// cell's content) is identical to a sequential evaluation.
func Matrix(ns, ts []int, v Variant, size SuiteSize, seed int64) ([]*Cell, error) {
	params := GridParams(ns, ts, v)
	cells, errs := exec.MapWeightedCollect(params, exec.Workers(),
		func(_ int, p hom.Params) int64 { return CellCost(p, size) },
		func(_ int, p hom.Params) (*Cell, error) {
			return EvaluateCell(p, size, seed)
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
