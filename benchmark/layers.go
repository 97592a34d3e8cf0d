package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"homonyms/internal/core"
	"homonyms/internal/engine"
	"homonyms/internal/exec"
	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
	"homonyms/internal/solvability"
)

// traced is the per-layer pass: the same ops behind the benchmark's
// wrappers, every layer boundary a span. Traced and untraced seed
// cycles alternate, so the tracing overhead compares two samples taken
// under the same machine conditions. The pass then drives the layers
// the op trace cannot reach from outside (msg, inject.Compile, the exec
// pool, the concrete twin, sequential cell timings) directly.
func (h *harness) traced(d time.Duration, traceOut string) (map[string]float64, error) {
	w := h.w
	tr := newTracer(traceOut != "")
	var walls, plain seedWalls
	var sum opResult
	runtime.GC()
	h.repeat(d*3/4, func() {
		h.cycle("paired-untraced", opMode{}, func(i int, ok bool, r *opResult) {
			if ok {
				plain.add(i, r)
			}
		})
		h.cycle("traced", opMode{tr: tr}, func(i int, ok bool, r *opResult) {
			if !ok {
				tr.discard()
				return
			}
			tr.fold()
			walls.add(i, r)
			sum.add(r)
		})
	})
	if traceOut != "" {
		if err := tr.writeJSONL(traceOut); err != nil {
			return nil, err
		}
	}

	m := make(map[string]float64)
	ops := float64(max(tr.ops, 1))
	opWallUS := float64(tr.opWall) / 1e3 / ops
	attributed := 0.0
	for _, l := range layerOf {
		us := tr.selfUS(l.kind)
		m[l.name+"_us"] = us
		attributed += us
	}
	if w.counting {
		// Counting() cannot be wrapped (the engine recognises it through
		// an unexported interface), so its routing, class bookkeeping
		// and merging are what Run spends outside the protocol and
		// adversary spans.
		m["engine.counting_self_us"] = tr.selfUS(spanRun)
		attributed += tr.selfUS(spanRun)
		m["engine.counting_classes_final"] = float64(sum.classes) / ops
	}
	if opWallUS > 0 {
		for _, l := range layerOf {
			m[l.name+"_share"] = m[l.name+"_us"] / opWallUS
		}
		m["engine.counting_self_share"] = m["engine.counting_self_us"] / opWallUS
		m["harness.unattributed_share"] = 1 - attributed/opWallUS
	}
	if tr.draws > 0 {
		m["engine.shared_fill_share"] = float64(tr.sharedDraws) / float64(tr.draws)
	}
	if w.matrix == nil {
		m["engine.run_allocs_per_round"] = h.runAllocsPerRound()
	}
	if d := sum.stats.MessagesDelivered; d > 0 {
		m["engine.ns_per_delivery"] = float64(tr.self[spanRouteFlush]+tr.self[spanDeliver]) / float64(d)
		m["protocol.receive_ns_per_delivery"] = float64(tr.self[spanProtoReceive]) / float64(d)
	}
	m["engine.rounds"] = float64(sum.engineRounds) / ops
	m["engine.msgs_sent"] = float64(sum.stats.MessagesSent) / ops
	m["engine.msgs_delivered"] = float64(sum.stats.MessagesDelivered) / ops
	m["engine.msgs_dropped"] = float64(sum.stats.MessagesDropped) / ops
	m["engine.fault_omissions"] = float64(sum.stats.FaultOmissions) / ops
	m["engine.timing_holds"] = float64(sum.stats.TimingHolds) / ops
	m["engine.retransmits"] = float64(sum.stats.Retransmits) / ops
	m["engine.restricted_violations"] = float64(sum.stats.RestrictedViolations) / ops
	m["adversary.drop_calls"] = float64(tr.calls[spanAdvDrop]) / ops
	if sum.decisions > 0 {
		m["engine.payload_kb_per_decision"] = float64(sum.payload) / 1e3 / float64(sum.decisions)
		t := w.params.T
		if w.matrix != nil {
			t = w.matrix.ts[0]
		}
		if t > 0 {
			// Distance from the Ω(t²) message floor of arXiv:2311.08060.
			m["protocol.msgs_over_t2"] = float64(sum.msgs) / float64(sum.decisions) / float64(t*t)
		}
	}

	untraced := append(h.untracedWalls.all(), plain.all()...)
	m["harness.samples"] = float64(len(untraced))
	m["harness.op_wall_ms_tail"], m["harness.tail_percentile"] = tail(untraced)
	if base := plain.opWallMS(); base > 0 {
		m["harness.trace_overhead_share"] = walls.opWallMS()/base - 1
	}
	m["harness.setup_first_s"] = h.setups[0]

	m["exec.workers"] = float64(exec.Workers())
	m["exec.item_overhead_us"] = execItemOverheadUS()
	if h.inputs[0].faults != nil {
		us, err := injectCompileUS(h.inputs[0].faults, w.params.N)
		if err != nil {
			return nil, err
		}
		m["inject.compile_us"] = us
	}
	if w.msgLayer {
		stamp, fill, err := h.msgLayer()
		if err != nil {
			return nil, err
		}
		m["msg.stamp_ns_per_send"], m["msg.fill_ns_per_delivery"] = stamp, fill
	}
	if w.twin {
		h.concreteTwin(m, walls.opWallMS())
	}
	if w.matrix != nil {
		if err := h.sequentialCells(m, tr.selfUS(spanMatrix)/1e3); err != nil {
			return nil, err
		}
	}
	peak, err := procStatusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	m["harness.peak_rss_mb"] = peak
	return m, nil
}

// runAllocsPerRound runs one untimed seed cycle with ReadMemStats
// around Run: the allocations of the round loop alone, without
// assembly.
func (h *harness) runAllocsPerRound() float64 {
	var sum opResult
	h.cycle("allocs", opMode{countRunAllocs: true}, func(_ int, ok bool, r *opResult) {
		if ok {
			sum.add(r)
		}
	})
	if sum.engineRounds == 0 {
		return 0
	}
	return float64(sum.runMallocs) / float64(sum.engineRounds)
}

// concreteTwin runs the counting workload's seed cycle under the
// wrapped Concrete() representation: the ratio of traced medians is the
// counting slow path's penalty over routing the same slots concretely,
// and the twin's route_flush is what a (class, weight) routing path has
// to beat. The twin's digests must equal the counting ones.
func (h *harness) concreteTwin(m map[string]float64, countingMS float64) {
	tr := newTracer(false)
	var walls seedWalls
	h.cycle("twin", opMode{tr: tr, concreteTwin: true}, func(i int, ok bool, r *opResult) {
		if !ok {
			tr.discard()
			return
		}
		tr.fold()
		walls.add(i, r)
	})
	if twin := walls.opWallMS(); twin > 0 {
		m["engine.counting_vs_concrete_x"] = countingMS / twin
	}
	m["engine.concrete_twin_route_flush_us"] = tr.selfUS(spanRouteFlush)
}

// sequentialCells evaluates every grid cell once on this goroutine and
// derives the pool's speed-up: the sequential sum over the traced
// Matrix wall (matrixMS, per op).
func (h *harness) sequentialCells(m map[string]float64, matrixMS float64) error {
	suite := solvability.DefaultSuite()
	var cellMS []float64
	total := 0.0
	for _, p := range h.w.matrixCells() {
		t0 := time.Now()
		if _, err := solvability.EvaluateCell(p, suite, h.seed); err != nil {
			return fmt.Errorf("sequential cell %v: %w", p, err)
		}
		d := ms(time.Since(t0))
		cellMS = append(cellMS, d)
		total += d
	}
	sort.Float64s(cellMS)
	m["solvability.cell_ms_p50"] = median(cellMS)
	m["solvability.cell_ms_max"] = cellMS[len(cellMS)-1]
	m["solvability.pass_seq_ms"] = total
	if matrixMS > 0 {
		m["exec.speedup_x"] = total / matrixMS
		m["exec.efficiency"] = total / matrixMS / float64(exec.Workers())
	}
	return nil
}

// execItemOverheadUS times the pool itself: MapN over no-op items.
func execItemOverheadUS() float64 {
	const items = 1 << 16
	t0 := time.Now()
	// The items cannot fail, so the error is always nil.
	_, _ = exec.MapN(items, exec.Workers(), func(i int) (int, error) { return i, nil })
	return float64(time.Since(t0)) / 1e3 / items
}

// injectCompileUS times inject.Compile on the workload's schedule.
func injectCompileUS(s *inject.Schedule, n int) (float64, error) {
	const reps = 1000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := inject.Compile(s, n); err != nil {
			return 0, fmt.Errorf("inject.Compile: %w", err)
		}
	}
	return float64(time.Since(t0)) / 1e3 / reps, nil
}

// msgLayer drives package msg directly with one op's recorded traffic:
// per round, the distinct sends are stamped through an Interner into a
// SendArena, then every recipient's delivered batch is filled into an
// inbox — one shared GroupInbox per class of identical batches within
// an identifier group, a per-recipient SoA inbox otherwise, as the
// router does. The two costs should move engine.route_flush_us and
// engine.deliver_fill_us respectively.
func (h *harness) msgLayer() (stampNS, fillNS float64, err error) {
	w, in := h.w, h.inputs[0]
	sel, err := core.Select(w.params)
	if err != nil {
		return 0, 0, err
	}
	opts := append(w.options(sel, in, nil, in.adversary, nil), engine.WithTrafficRecording())
	res, err := engine.Run(opts...)
	if err != nil {
		return 0, 0, fmt.Errorf("record traffic: %w", err)
	}

	// fillClass is one inbox fill: a delivered batch and how many
	// recipients of one identifier received exactly it.
	type fillClass struct {
		batch []int32
		views int
	}
	type roundTraffic struct {
		ids     []hom.Identifier // per distinct send, in first-delivery order
		bodies  []msg.Payload
		keys    []string
		batches [][]int32 // per recipient slot: arena indices delivered
		fills   []fillClass
	}
	n := w.params.N
	var rounds []*roundTraffic
	type sendKey struct {
		from int
		key  string
	}
	var seen map[sendKey]int32
	for _, d := range res.Traffic {
		for len(rounds) < d.Round {
			rounds = append(rounds, &roundTraffic{batches: make([][]int32, n)})
			seen = make(map[sendKey]int32)
		}
		rt := rounds[d.Round-1]
		k := sendKey{d.FromSlot, d.Msg.Key()}
		si, ok := seen[k]
		if !ok {
			si = int32(len(rt.ids))
			seen[k] = si
			rt.ids = append(rt.ids, d.Msg.ID)
			rt.bodies = append(rt.bodies, d.Msg.Body)
			rt.keys = append(rt.keys, d.Msg.Body.Key())
		}
		rt.batches[d.ToSlot] = append(rt.batches[d.ToSlot], si)
	}
	// Classify outside the timed replay: recipients of one identifier
	// whose batch equals an earlier member's share that member's core.
	deliveries := 0
	for _, rt := range rounds {
		for to, batch := range rt.batches {
			deliveries += len(batch)
			views := 1
			for other, id := range in.assignment {
				if id != in.assignment[to] || other == to || !equalBatch(rt.batches[other], batch) {
					continue
				}
				if other < to {
					views = 0 // counted in other's class
					break
				}
				views++
			}
			if batch != nil && views > 0 {
				rt.fills = append(rt.fills, fillClass{batch, views})
			}
		}
	}

	const reps = 20
	sends := 0
	var stamp, fill time.Duration
	it := msg.NewInterner()
	var arena msg.SendArena
	for rep := 0; rep < reps; rep++ {
		it.Reset()
		for _, rt := range rounds {
			t0 := time.Now()
			arena.Reset()
			for i := range rt.ids {
				arena.Append(it, rt.ids[i], rt.bodies[i], rt.keys[i])
			}
			t1 := time.Now()
			for _, f := range rt.fills {
				if f.views == 1 {
					msg.NewPooledInboxSoA(w.params.Numerate, &arena, f.batch).Recycle()
					continue
				}
				g := msg.NewPooledGroupInbox(w.params.Numerate, &arena, f.batch, f.views)
				for v := 0; v < f.views; v++ {
					msg.NewPooledInboxView(g).Recycle()
				}
			}
			stamp += t1.Sub(t0)
			fill += time.Since(t1)
			sends += len(rt.ids)
		}
	}
	deliveries *= reps
	if sends == 0 || deliveries == 0 {
		return 0, 0, fmt.Errorf("recorded op delivered no traffic")
	}
	return float64(stamp) / float64(sends), float64(fill) / float64(deliveries), nil
}

func equalBatch(a, b []int32) bool {
	if len(a) != len(b) || a == nil {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
