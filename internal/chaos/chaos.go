// Package chaos is the soak harness for the eventually-synchronous time
// model: it composes the scenario fuzzer's protocol/adversary sampling
// with much heavier timing-fault schedules — link delays held across
// GST, probabilistic delay windows, round-clock stalls, reorders,
// retransmission under tight message budgets — and runs every
// composition under the engines' paranoid invariant checks with panic
// isolation (fuzz.Run wraps each execution in exec.Protect).
//
// Like a fuzz campaign, a soak is a pure function of its seed: scenario
// i derives from (seed, i), the fan-out runs on exec.MapN, and the
// report digest folds outcome digests in index order — byte-identical
// across runs and worker counts. Unlike a fuzz campaign, every scenario
// runs under the esync time model; the harness's job is not finding
// protocol counterexamples but shaking the timing machinery: a real
// violation, an invariant failure or a panic is a harness/engine bug
// and fails the soak.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"homonyms/internal/exec"
	"homonyms/internal/fuzz"
	"homonyms/internal/inject"
)

// Config parameterises one soak.
type Config struct {
	// Seed determines every scenario of the soak.
	Seed int64
	// Count is the number of compositions to run.
	Count int
	// Workers bounds the worker pool; 0 selects exec.Workers(). The
	// report is byte-identical for every worker count.
	Workers int
	// Gen bounds the underlying scenario sampling space.
	Gen fuzz.GenOptions
	// Invariants runs every composition with the engines' per-round
	// internal checks — the soak's reason to exist; cmd/chaos defaults
	// it on.
	Invariants bool
}

// Report summarises a soak.
type Report struct {
	Seed    int64 `json:"seed"`
	Count   int   `json:"count"`
	Workers int   `json:"workers"`
	// ByClass counts outcomes per fuzz classification.
	ByClass map[fuzz.Class]int `json:"by_class"`
	// Stops counts budget stops per reason — the soak deliberately
	// squeezes message budgets, so a healthy report shows some
	// "message-budget" entries (graceful degradation, not livelock).
	Stops map[string]int `json:"stops,omitempty"`
	// Timed counts scenarios that carried at least one timing fault.
	Timed int `json:"timed"`
	// Real holds every real violation; Panics every caught panic. Either
	// being non-empty fails the soak.
	Real   []*fuzz.Outcome `json:"real,omitempty"`
	Panics []*fuzz.Outcome `json:"panics,omitempty"`
	// Errors holds the first few harness errors verbatim (an invariant
	// failure surfaces here).
	Errors []string `json:"errors,omitempty"`
	// Digest folds every outcome digest in index order.
	Digest string `json:"digest"`
}

// OK reports whether the soak passed: no real violations, no panics, no
// harness errors.
func (r *Report) OK() bool {
	return len(r.Real) == 0 && len(r.Panics) == 0 && len(r.Errors) == 0
}

// subSeed derives the i-th scenario seed with a splitmix64 step (the
// same derivation the fuzzer uses, under a different golden offset so a
// soak and a campaign on the same seed explore different scenarios).
func subSeed(seed int64, i int) int64 {
	x := (uint64(seed) ^ 0xc2b2ae3d27d4eb4f) + 0x9e3779b97f4a7c15*uint64(i+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Chaosify overlays the timing dimension onto a generated scenario: the
// esync time model with drawn knobs, a delay/reorder/stall schedule
// sampled much denser than the fuzzer's, and — one composition in four —
// a message budget tight enough that sustained retransmission runs into
// it. The overlay draws only from rng, so a composition is a pure
// function of (scenario, rng state).
func Chaosify(rng *rand.Rand, sc fuzz.Scenario) fuzz.Scenario {
	sc.TimeModel = "esync"
	sc.Bound = rng.Intn(4)
	if rng.Intn(4) > 0 { // retransmission on three compositions in four
		sc.Timeout = 1 + rng.Intn(3)
		if rng.Intn(3) == 0 {
			sc.MaxAttempts = 1 + rng.Intn(4)
		}
	}

	var f inject.Schedule
	if sc.Faults != nil {
		f = *sc.Faults
	}
	n := sc.N
	// Dense link delays: up to three windows, a third of them held until
	// stabilisation (By 0), a third probabilistic.
	k := 1 + rng.Intn(3)
	for i := 0; i < k; i++ {
		d := inject.Delay{FromSlot: rng.Intn(n), ToSlot: rng.Intn(n), From: 1 + rng.Intn(6)}
		if rng.Intn(3) > 0 {
			d.By = 1 + rng.Intn(5)
		}
		if rng.Intn(2) == 0 {
			d.Until = d.From + rng.Intn(8)
		}
		if rng.Intn(3) == 0 {
			d.Prob = 0.2 + 0.7*rng.Float64()
			d.Seed = rng.Int63()
		}
		f.Delays = append(f.Delays, d)
	}
	if rng.Intn(2) == 0 {
		f.Reorders = append(f.Reorders, inject.Reorder{
			FromSlot: rng.Intn(n), ToSlot: rng.Intn(n), Round: 1 + rng.Intn(8),
		})
	}
	if rng.Intn(2) == 0 {
		f.Stalls = append(f.Stalls, inject.Stall{
			Slot: rng.Intn(n), Round: 1 + rng.Intn(6), Rounds: 1 + rng.Intn(4),
		})
	}
	sc.Faults = &f

	if rng.Intn(4) == 0 {
		// Budget squeeze: a few rounds' worth of sends, so sustained
		// delay plus retransmission degrades into a structured stop.
		sc.MaxSends = sc.N * (2 + rng.Intn(6))
	}
	return sc
}

// Soak runs cfg.Count chaos compositions across the worker pool and
// aggregates a deterministic report.
func Soak(cfg Config) (*Report, error) {
	if cfg.Count <= 0 {
		cfg.Count = 1
	}
	opts := fuzz.Options{Invariants: cfg.Invariants}
	outs, err := exec.MapN(cfg.Count, cfg.Workers, func(i int) (*fuzz.Outcome, error) {
		rng := rand.New(rand.NewSource(subSeed(cfg.Seed, i)))
		sc := Chaosify(rng, fuzz.Generate(rng, cfg.Gen))
		return fuzz.Run(sc, opts), nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Seed:    cfg.Seed,
		Count:   cfg.Count,
		Workers: cfg.Workers,
		ByClass: map[fuzz.Class]int{},
		Stops:   map[string]int{},
	}
	h := fnv.New64a()
	for i, o := range outs {
		rep.ByClass[o.Class]++
		fmt.Fprintf(h, "%d:%s;", i, o.Digest)
		if o.Stopped != "" {
			rep.Stops[o.Stopped]++
		}
		if o.Scenario.Faults.HasTiming() {
			rep.Timed++
		}
		switch o.Class {
		case fuzz.ClassViolation:
			rep.Real = append(rep.Real, o)
		case fuzz.ClassPanic:
			rep.Panics = append(rep.Panics, o)
		case fuzz.ClassError:
			if len(rep.Errors) < 10 {
				rep.Errors = append(rep.Errors, fmt.Sprintf("scenario %d: %s", i, o.Detail))
			}
		}
	}
	rep.Digest = fmt.Sprintf("%016x", h.Sum64())
	return rep, nil
}

// Format renders the report as stable text: two runs agree exactly on
// this string.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak seed=%d count=%d timed=%d digest=%s\n", r.Seed, r.Count, r.Timed, r.Digest)
	classes := make([]string, 0, len(r.ByClass))
	for c := range r.ByClass {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "  %-20s %d\n", c, r.ByClass[fuzz.Class(c)])
	}
	stops := make([]string, 0, len(r.Stops))
	for s := range r.Stops {
		stops = append(stops, s)
	}
	sort.Strings(stops)
	for _, s := range stops {
		fmt.Fprintf(&b, "  stopped %-12s %d\n", s, r.Stops[s])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "  error: %s\n", e)
	}
	for _, o := range r.Real {
		fmt.Fprintf(&b, "  REAL VIOLATION: %s [%s]\n", o.Detail, strings.Join(o.Properties, ","))
	}
	for _, o := range r.Panics {
		fmt.Fprintf(&b, "  PANIC: %s\n", o.Detail)
	}
	return b.String()
}
