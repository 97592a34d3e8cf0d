package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// setupReps is how many times a run sets up: setup_s is the median, so
// a single slow page-in does not decide it. The first (cold) set-up is
// reported on its own as harness.setup_first_s.
const setupReps = 3

// rssSampleGap spaces the untraced pass's resident-set samples: one
// after a seed cycle, at most this often, so reading /proc stays below
// a thousandth of the millisecond-sized workload's window.
const rssSampleGap = 50 * time.Millisecond

// harness runs one workload's passes in this process.
type harness struct {
	w     *workload
	seed  int64
	quick bool
	log   io.Writer

	inputs [seedCycle]*opInput
	// ref holds the warm-up cycle's results: the digests every later op
	// of the same seed must reproduce, and the model costs the
	// per-decision metrics sum (exact: the executions are
	// deterministic, so one cycle is every cycle).
	ref [seedCycle]opResult

	setups    []float64 // seconds, one per set-up
	attempted int
	failed    int

	untracedWalls seedWalls // the untraced pass
}

// seedWalls holds op wall times in ms, per seed of the cycle. Seeds
// differ in cost (another corrupted slot, another input vector), so a
// median over the mixture would sit between clusters and jump with the
// op count; the reported op wall is instead each seed's own median,
// averaged over the cycle.
type seedWalls [seedCycle][]float64

func (s *seedWalls) add(i int, r *opResult) { s[i] = append(s[i], ms(r.wall)) }

func (s *seedWalls) opWallMS() float64 {
	sum := 0.0
	for _, walls := range s {
		sum += median(walls)
	}
	return sum / seedCycle
}

func (s *seedWalls) all() []float64 {
	var out []float64
	for _, walls := range s {
		out = append(out, walls...)
	}
	return out
}

// fail counts one failed op and prints why.
func (h *harness) fail(pass string, op int, seed int64, err error) {
	h.failed++
	fmt.Fprintf(h.log, "FAILED workload=%s pass=%s op=%d seed=%d: %v\n", h.w.name, pass, op, seed, err)
}

// setup builds the seed cycle's inputs and runs the warm-up cycle, so
// pools, the interner and the heap are in their steady state before
// the first timed op.
func (h *harness) setup() {
	for i := range h.inputs {
		h.inputs[i] = h.w.buildInput(h.seed + int64(i))
	}
	cycles := max(h.w.warmupCycles, 1)
	if h.quick {
		cycles = 1
	}
	for c := 0; c < cycles; c++ {
		for i, in := range h.inputs {
			r := h.w.runOp(in, opMode{})
			if h.ref[i].decisions == 0 && r.err == nil {
				h.ref[i] = r
			}
			h.check("warmup", i, in, &r)
		}
	}
}

// setupAll sets up setupReps times; the first is timed from process
// start, so it includes runtime start-up and flag handling.
func (h *harness) setupAll(procStart time.Time) {
	reps := setupReps
	if h.quick {
		reps = 1
	}
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = procStart
		}
		h.setup()
		h.setups = append(h.setups, time.Since(t0).Seconds())
	}
}

// check compares one timed op against its seed's reference.
func (h *harness) check(pass string, i int, in *opInput, r *opResult) bool {
	h.attempted++
	ref := &h.ref[i]
	switch {
	case r.err != nil:
		h.fail(pass, i, in.seed, r.err)
	case ref.decisions == 0:
		h.fail(pass, i, in.seed, fmt.Errorf("seed has no reference digest (its first warm-up op failed)"))
	case r.digest != ref.digest:
		h.fail(pass, i, in.seed, fmt.Errorf("digest %016x differs from the seed's first digest %016x", r.digest, ref.digest))
	default:
		return true
	}
	return false
}

// cycle runs one seed cycle of ops, closed loop, one op at a time.
// each is called after every op, outside the op's own wall time.
func (h *harness) cycle(pass string, mode opMode, each func(i int, ok bool, r *opResult)) {
	for i, in := range h.inputs {
		r := h.w.runOp(in, mode)
		each(i, h.check(pass, i, in, &r), &r)
	}
}

// repeat calls fn, which runs whole seed cycles, until d has passed
// (exactly once when quick), so that sums over a pass are sums over the
// same executions.
func (h *harness) repeat(d time.Duration, fn func()) time.Duration {
	start := time.Now()
	for {
		fn()
		if h.quick || time.Since(start) >= d {
			return time.Since(start)
		}
	}
}

// untraced is the end-to-end pass: tracing off, wrappers absent.
func (h *harness) untraced(d time.Duration) (map[string]float64, error) {
	var walls seedWalls
	for i := range walls {
		walls[i] = make([]float64, 0, 1<<14) // no growth inside the measured window
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	ops := 0
	var rss []float64
	var rssErr error
	lastRSS := time.Now()
	window := h.repeat(d, func() {
		h.cycle("untraced", opMode{}, func(i int, ok bool, r *opResult) {
			ops++
			if ok {
				walls.add(i, r)
			}
		})
		if len(rss) == 0 || time.Since(lastRSS) >= rssSampleGap {
			mb, err := procStatusMB("VmRSS")
			if err != nil {
				rssErr = err
			}
			rss = append(rss, mb)
			lastRSS = time.Now()
		}
	})
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	if rssErr != nil {
		return nil, rssErr
	}
	h.untracedWalls = walls

	var ref opResult
	for i := range h.ref {
		ref.add(&h.ref[i])
	}
	decisions := float64(max(ref.decisions, 1)) // 0: every warm-up op failed, already counted in failed
	n := float64(ops)
	return map[string]float64{
		"setup_s":             median(h.setups),
		"op_wall_ms":          walls.opWallMS(),
		"ops_per_s":           n / window.Seconds(),
		"cpu_ms_per_op":       ms(cpu) / n,
		"allocs_per_op":       float64(m1.Mallocs-m0.Mallocs) / n,
		"alloc_kb_per_op":     float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3 / n,
		"rss_mb":              median(rss),
		"rounds_per_decision": float64(ref.rounds) / decisions,
		"msgs_per_decision":   float64(ref.msgs) / decisions,
	}, nil
}
