package fuzz

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"homonyms/internal/exec"
)

// Config parameterises one fuzz campaign.
type Config struct {
	// Seed determines every scenario of the campaign.
	Seed int64
	// Count is the number of scenarios to run.
	Count int
	// Workers bounds the worker pool; 0 selects exec.Workers(). The
	// report is byte-identical for every worker count.
	Workers int
	// Gen bounds the sampling space.
	Gen GenOptions
	// Shrink enables shrinking of recorded scenarios.
	Shrink bool
	// ShrinkBudget caps the number of extra executions each shrink may
	// spend (default 200).
	ShrinkBudget int
	// KeepExpected is how many expected violations to record (shrunk)
	// for seed harvesting; real violations are always recorded.
	KeepExpected int
	// Invariants runs every scenario with the engines' per-round
	// internal checks enabled (Options.Invariants) — the CI hardening
	// mode. An invariant failure surfaces as a harness error.
	Invariants bool
	// ForceTimeModel overrides the time model of every lockstep
	// scenario the campaign runs (see Options.ForceTimeModel).
	ForceTimeModel string
}

// Found is one recorded scenario with its outcome and, when shrinking
// ran, the minimal equivalent scenario.
type Found struct {
	Index   int      `json:"index"`
	Outcome *Outcome `json:"outcome"`
	Shrunk  *Outcome `json:"shrunk,omitempty"`
}

// Report summarises a campaign.
type Report struct {
	Seed    int64 `json:"seed"`
	Count   int   `json:"count"`
	Workers int   `json:"workers"`
	// ByClass counts outcomes per class; ByProtocol per target.
	ByClass    map[Class]int  `json:"by_class"`
	ByProtocol map[string]int `json:"by_protocol"`
	// Real holds every real violation (claimed region broken) — any
	// entry here must fail CI.
	Real []Found `json:"real,omitempty"`
	// Expected holds up to KeepExpected expected violations, shrunk:
	// the harvest that becomes committed regression seeds.
	Expected []Found `json:"expected,omitempty"`
	// Panics holds every scenario whose execution panicked (caught at
	// the exec.Protect boundary) — like Real, any entry fails CI, but
	// the campaign itself completes and reports the rest.
	Panics []Found `json:"panics,omitempty"`
	// Errors holds the first few harness errors verbatim.
	Errors []string `json:"errors,omitempty"`
	// Digest folds every outcome digest in index order.
	Digest string `json:"digest"`
}

// subSeed derives the i-th scenario seed from the campaign seed with a
// splitmix64 step, so neighbouring indices get uncorrelated streams.
func subSeed(seed int64, i int) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Campaign runs cfg.Count generated scenarios across the worker pool and
// aggregates a deterministic report. Scenario i is a pure function of
// (cfg.Seed, i); the aggregation is sequential in index order; shrinking
// runs after the parallel phase — so the report (including its digest)
// is identical for every worker count.
func Campaign(cfg Config) (*Report, error) {
	if cfg.Count <= 0 {
		cfg.Count = 1
	}
	if cfg.ShrinkBudget <= 0 {
		cfg.ShrinkBudget = 200
	}
	opts := Options{Invariants: cfg.Invariants, ForceTimeModel: cfg.ForceTimeModel}
	outs, err := exec.MapN(cfg.Count, cfg.Workers, func(i int) (*Outcome, error) {
		rng := rand.New(rand.NewSource(subSeed(cfg.Seed, i)))
		return Run(Generate(rng, cfg.Gen), opts), nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Seed:       cfg.Seed,
		Count:      cfg.Count,
		Workers:    cfg.Workers,
		ByClass:    map[Class]int{},
		ByProtocol: map[string]int{},
	}
	h := fnv.New64a()
	for i, o := range outs {
		rep.ByClass[o.Class]++
		rep.ByProtocol[o.Scenario.Protocol]++
		fmt.Fprintf(h, "%d:%s;", i, o.Digest)
		switch o.Class {
		case ClassViolation:
			rep.Real = append(rep.Real, found(cfg, i, o))
		case ClassExpected:
			if len(rep.Expected) < cfg.KeepExpected {
				rep.Expected = append(rep.Expected, found(cfg, i, o))
			}
		case ClassPanic:
			rep.Panics = append(rep.Panics, found(cfg, i, o))
		case ClassError:
			if len(rep.Errors) < 10 {
				rep.Errors = append(rep.Errors, fmt.Sprintf("scenario %d: %s", i, o.Detail))
			}
		}
	}
	rep.Digest = fmt.Sprintf("%016x", h.Sum64())
	return rep, nil
}

func found(cfg Config, i int, o *Outcome) Found {
	f := Found{Index: i, Outcome: o}
	if cfg.Shrink {
		if shrunk, runs := Shrink(o, cfg.ShrinkBudget); runs > 0 && shrunk != nil {
			f.Shrunk = shrunk
		}
	}
	return f
}

// Format renders the report as stable text (the campaign's "byte-identical
// output": two runs agree exactly on this string).
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz campaign seed=%d count=%d digest=%s\n", r.Seed, r.Count, r.Digest)
	classes := make([]string, 0, len(r.ByClass))
	for c := range r.ByClass {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "  %-20s %d\n", c, r.ByClass[Class(c)])
	}
	protos := make([]string, 0, len(r.ByProtocol))
	for p := range r.ByProtocol {
		protos = append(protos, p)
	}
	sort.Strings(protos)
	for _, p := range protos {
		fmt.Fprintf(&b, "  protocol %-12s %d\n", p, r.ByProtocol[p])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "  error: %s\n", e)
	}
	for _, f := range r.Real {
		fmt.Fprintf(&b, "  REAL VIOLATION at scenario %d: %s [%s]\n",
			f.Index, f.Outcome.Detail, strings.Join(f.Outcome.Properties, ","))
		if f.Shrunk != nil {
			fmt.Fprintf(&b, "    shrunk: %s\n", describe(f.Shrunk.Scenario))
		}
	}
	for _, f := range r.Panics {
		fmt.Fprintf(&b, "  PANIC at scenario %d: %s\n", f.Index, f.Outcome.Detail)
		if f.Shrunk != nil {
			fmt.Fprintf(&b, "    shrunk: %s\n", describe(f.Shrunk.Scenario))
		}
	}
	for _, f := range r.Expected {
		fmt.Fprintf(&b, "  expected violation at scenario %d (%s): %s\n",
			f.Index, f.Outcome.ClaimsWhy, strings.Join(f.Outcome.Properties, ","))
		if f.Shrunk != nil {
			fmt.Fprintf(&b, "    shrunk: %s\n", describe(f.Shrunk.Scenario))
		}
	}
	return b.String()
}

// describe renders a scenario one-line.
func describe(sc Scenario) string {
	model := "sync"
	if sc.Psync {
		model = "psync"
	}
	s := fmt.Sprintf("%s n=%d l=%d t=%d %s gst=%d sel=%s beh=%s drops=%s",
		sc.Protocol, sc.N, sc.L, sc.T, model, sc.GST,
		sc.Selector.Kind, sc.Behavior.Kind, sc.Drops.Kind)
	if !sc.Faults.Empty() {
		s += fmt.Sprintf(" faults=%dc/%do/%dd/%dr",
			len(sc.Faults.Crashes), len(sc.Faults.Omissions),
			len(sc.Faults.Duplicates), len(sc.Faults.Replays))
		if sc.Faults.HasTiming() {
			s += fmt.Sprintf("/%ddel/%dreo/%dst",
				len(sc.Faults.Delays), len(sc.Faults.Reorders), len(sc.Faults.Stalls))
		}
	}
	if sc.TimeModel != "" && sc.TimeModel != "lockstep" {
		s += fmt.Sprintf(" tm=%s(b=%d,to=%d,ma=%d)", sc.TimeModel, sc.Bound, sc.Timeout, sc.MaxAttempts)
	}
	if sc.MaxSends > 0 {
		s += fmt.Sprintf(" maxsends=%d", sc.MaxSends)
	}
	return s
}
