package main

import (
	"fmt"
	"time"

	"homonyms/internal/core"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/solvability"
	"homonyms/internal/trace"
)

// opResult is what one op leaves behind for the harness: its wall
// time, the correctness digest and the model costs the per-decision
// metrics sum.
type opResult struct {
	wall   time.Duration
	digest uint64
	// decisions is the number of deciding executions (1 for an engine
	// op, the solvable cells of a matrix pass).
	decisions int
	// rounds sums the latest correct decision round per decision.
	rounds int
	// msgs sums Stats.MessagesSent (matrix: Cell.MessagesDelivered).
	msgs int
	// payload sums Stats.PayloadBytes (the len(Key()) proxy).
	payload int
	stats   engine.Stats
	// engineRounds is Result.Rounds (rounds executed, not decided at).
	engineRounds int
	// classes is ClassCount() after Run (counting ops only).
	classes int
	// runMallocs is the Mallocs delta across Run (opMode.countRunAllocs).
	runMallocs uint64
	err        error
}

// add sums another op's model costs and counts into r.
func (r *opResult) add(o *opResult) {
	r.decisions += o.decisions
	r.rounds += o.rounds
	r.msgs += o.msgs
	r.payload += o.payload
	r.engineRounds += o.engineRounds
	r.classes += o.classes
	r.runMallocs += o.runMallocs
	r.stats.MessagesSent += o.stats.MessagesSent
	r.stats.MessagesDelivered += o.stats.MessagesDelivered
	r.stats.MessagesDropped += o.stats.MessagesDropped
	r.stats.PayloadBytes += o.stats.PayloadBytes
	r.stats.RestrictedViolations += o.stats.RestrictedViolations
	r.stats.FaultOmissions += o.stats.FaultOmissions
	r.stats.TimingHolds += o.stats.TimingHolds
	r.stats.Retransmits += o.stats.Retransmits
}

// options assembles the engine options of one op. rep is the state
// representation to run under; wrap, when non-nil, wraps every process
// the factory builds (the tracer's seam).
func (w *workload) options(sel *core.Selection, in *opInput, rep engine.StateRep, adv engine.Adversary, wrap func(engine.Process) engine.Process) []engine.Option {
	factory := sel.NewProcess
	if wrap != nil {
		factory = func(slot int) engine.Process { return wrap(sel.NewProcess(slot)) }
	}
	opts := []engine.Option{
		engine.WithParams(w.params),
		engine.WithAssignment(in.assignment),
		engine.WithInputs(in.inputs...),
		engine.WithProcess(factory),
		engine.WithGST(w.gst),
		engine.WithRounds(sel.SuggestedRounds(w.gst)),
	}
	if adv != nil {
		opts = append(opts, engine.WithAdversary(adv))
	}
	if in.faults != nil {
		opts = append(opts, engine.WithFaults(in.faults))
	}
	if w.timeModel != nil {
		opts = append(opts, engine.WithTimeModel(w.timeModel))
	}
	if rep != nil {
		opts = append(opts, engine.WithStateRep(rep))
	}
	return opts
}

// opMode selects how an op runs; the zero value is the untraced op.
type opMode struct {
	// tr, when set, runs the same calls behind the benchmark's wrappers
	// and records a span at every layer boundary.
	tr *tracer
	// concreteTwin runs a counting workload's op under Concrete().
	concreteTwin bool
	// countRunAllocs brackets Run with ReadMemStats (stop-the-world, so
	// never on an op whose wall time is used).
	countRunAllocs bool
}

// runOp executes one op: select the protocol, assemble, run to
// decision, check the three agreement properties.
func (w *workload) runOp(in *opInput, mode opMode) opResult {
	tr := mode.tr
	if w.matrix != nil {
		return w.runMatrixOp(in.seed, tr)
	}
	var out opResult
	start := time.Now()
	sp := tr.begin(spanOp)

	s := tr.begin(spanSelect)
	sel, err := core.Select(w.params)
	tr.end(s)
	if err != nil {
		out.err = err
		return out
	}

	var rep engine.StateRep
	adv := in.adversary
	var wrap func(engine.Process) engine.Process
	counting := w.counting && !mode.concreteTwin
	if counting {
		rep = engine.Counting()
	}
	if tr != nil {
		wrap = tr.wrapProcess
		if adv != nil {
			adv = tr.wrapAdversary(adv)
		}
		if !counting {
			rep = tr.wrapStateRep(engine.Concrete())
		}
	}

	s = tr.begin(spanNew)
	eng, err := engine.New(w.options(sel, in, rep, adv, wrap)...)
	tr.end(s)
	if err != nil {
		out.err = err
		return out
	}

	var before uint64
	if mode.countRunAllocs {
		before = mallocs()
	}
	s = tr.begin(spanRun)
	res, err := eng.Run()
	tr.endRun(s)
	if mode.countRunAllocs {
		out.runMallocs = mallocs() - before
	}
	if err != nil {
		out.err = err
		return out
	}

	s = tr.begin(spanCheck)
	verdict := trace.Check(res)
	tr.end(s)

	tr.end(sp)
	out.wall = time.Since(start)

	if !verdict.OK() {
		out.err = fmt.Errorf("agreement properties violated: %s", verdict)
		return out
	}
	out.digest, out.rounds = digestResult(res)
	if out.rounds == 0 {
		out.err = fmt.Errorf("no correct slot decided")
		return out
	}
	out.decisions = 1
	out.msgs = res.Stats.MessagesSent
	out.payload = res.Stats.PayloadBytes
	out.stats = res.Stats
	out.engineRounds = res.Rounds
	if cc, ok := rep.(interface{ ClassCount() int }); ok {
		out.classes = cc.ClassCount()
	}
	return out
}

// digestResult folds everything an op must reproduce — decisions,
// decision rounds, rounds executed, stats, stop reason, the corrupted
// and faulted sets — into one hash, and returns the latest decision
// round among the non-corrupted, non-faulted slots along the way. It
// allocates nothing, so it stays out of allocs_per_op even at n=10^6.
func digestResult(res *engine.Result) (digest uint64, latest int) {
	h := fnvOffset
	mix := func(v int) { h = (h ^ uint64(int64(v))) * fnvPrime }
	ci, fi := 0, 0
	for s, d := range res.Decisions {
		mix(int(d))
		mix(res.DecidedAt[s])
		exempt := false
		if ci < len(res.Corrupted) && res.Corrupted[ci] == s {
			ci++
			exempt = true
		}
		if fi < len(res.Faulted) && res.Faulted[fi] == s {
			fi++
			exempt = true
		}
		if !exempt && res.DecidedAt[s] > latest {
			latest = res.DecidedAt[s]
		}
	}
	for _, s := range res.Corrupted {
		mix(s)
	}
	for _, s := range res.Faulted {
		mix(-1 - s)
	}
	mix(res.Rounds)
	mix(res.GST)
	st := res.Stats
	for _, v := range []int{st.MessagesSent, st.MessagesDelivered, st.MessagesDropped, st.PayloadBytes,
		st.RestrictedViolations, st.FaultOmissions, st.TimingHolds, st.Retransmits} {
		mix(v)
	}
	for _, c := range []byte(res.Stopped) {
		mix(int(c))
	}
	if res.AllDecided {
		mix(1)
	}
	return h, latest
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// runMatrixOp is one table1_matrix op: the full (n, t, l) grid for all
// four Table-1 variants through the exec pool, checked for consistency
// with the table. Traced, every cell is additionally evaluated
// sequentially (outside the op's wall time) so the pool's speed-up has
// a same-process denominator.
func (w *workload) runMatrixOp(seed int64, tr *tracer) opResult {
	var out opResult
	suite := solvability.DefaultSuite()
	h := fnvOffset
	mix := func(v int) { h = (h ^ uint64(int64(v))) * fnvPrime }
	start := time.Now()
	sp := tr.begin(spanOp)
	for _, v := range solvability.Variants() {
		s := tr.begin(spanMatrix)
		cells, err := solvability.Matrix(w.matrix.ns, w.matrix.ts, v, suite, seed)
		tr.end(s)
		if err != nil {
			out.err = err
			return out
		}
		s = tr.begin(spanCheck)
		ok, bad := solvability.Consistent(cells)
		tr.end(s)
		if !ok {
			out.err = fmt.Errorf("matrix cell %v inconsistent with Table 1: %s (%s)", bad.Params, bad.Outcome, bad.Detail)
			return out
		}
		for _, c := range cells {
			mix(int(c.Outcome))
			mix(c.WorstDecisionRound)
			mix(c.MessagesDelivered)
			if c.Outcome == solvability.Solved {
				out.decisions++
				out.rounds += c.WorstDecisionRound
				out.msgs += c.MessagesDelivered
			}
		}
	}
	tr.end(sp)
	out.wall = time.Since(start)
	out.digest = h
	if out.decisions == 0 {
		out.err = fmt.Errorf("matrix pass solved no cell")
	}
	return out
}

// matrixCells lists the grid's cells across all variants, in Matrix
// order.
func (w *workload) matrixCells() []hom.Params {
	var cells []hom.Params
	for _, v := range solvability.Variants() {
		cells = append(cells, solvability.GridParams(w.matrix.ns, w.matrix.ts, v)...)
	}
	return cells
}
