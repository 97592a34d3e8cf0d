package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/exec"
)

// corpusScenarios loads every committed regression seed's scenario,
// keeping only the ones whose config assembles (the corpus contains no
// others, but the guard keeps the test honest if one is ever added).
func corpusScenarios(t *testing.T) []Scenario {
	t.Helper()
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no committed regression seeds found")
	}
	var out []Scenario
	for _, name := range names {
		sf, err := LoadSeed(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		if _, err := sf.Scenario.Config(); err != nil {
			t.Logf("skipping %s: %v", name, err)
			continue
		}
		out = append(out, sf.Scenario)
	}
	if len(out) == 0 {
		t.Fatal("no runnable scenarios in the corpus")
	}
	return out
}

// corpusRun replays sc once: its own time model (and state
// representation, if it names one), then the overrides.
func corpusRun(sc Scenario, overrides ...engine.Option) (*engine.Result, error) {
	opts, err := sc.Options()
	if err != nil {
		return nil, err
	}
	return engine.Run(append(opts, overrides...)...)
}

// repMaker names a state-representation constructor: a StateRep holds
// one execution's processes, so every run builds a fresh one.
type repMaker struct {
	name string
	mk   func() engine.StateRep
}

// stateReps are the state representations, the Concrete reference first.
var stateReps = []repMaker{
	{"concrete", engine.Concrete},
	{"counting", engine.Counting},
}

// resultFingerprint renders everything observable about a Result into a
// stable string, so "byte-identical" is checked literally.
func resultFingerprint(r *engine.Result) string {
	return fmt.Sprintf("%+v|%+v|%v|%v|%v|%d|%d|%v|%+v|%d",
		r.Params, r.Assignment, r.Inputs, r.Corrupted, r.Decisions,
		r.Rounds, r.GST, r.DecidedAt, r.Stats, len(r.Traffic))
}

// TestSeedCorpusDeliveryParity is the delivery modes' golden test: every
// committed fuzz seed replays to a byte-identical Result (decisions,
// decision rounds, effective GST, full statistics) under all four
// combinations — {Concrete, Counting} x {batched, per-message}
// — with sequential per-message delivery as the reference.
func TestSeedCorpusDeliveryParity(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		sc := sc
		t.Run(sc.Protocol+"_"+sc.Behavior.Kind, func(t *testing.T) {
			run := func(rep repMaker, mode engine.DeliveryMode) string {
				res, err := corpusRun(sc, engine.WithStateRep(rep.mk()), engine.WithDelivery(mode))
				if err != nil {
					t.Fatalf("%s/%v: %v", rep.name, mode, err)
				}
				return resultFingerprint(res)
			}
			want := run(stateReps[0], engine.DeliverPerMessage)
			for _, rep := range stateReps {
				for _, mode := range []engine.DeliveryMode{engine.DeliverBatched, engine.DeliverPerMessage} {
					if got := run(rep, mode); got != want {
						t.Errorf("%s/%v diverges from concrete/per-message:\ngot:  %s\nwant: %s",
							rep.name, mode, got, want)
					}
				}
			}
		})
	}
}

// TestSeedCorpusParityAcrossWorkers replays the whole corpus through the
// exec worker pool at several worker counts, in both delivery modes: the
// concatenated result fingerprints must be identical everywhere. This is
// the "across worker counts" half of the acceptance criterion — pooled
// interners, arenas and inbox shells are recycled across concurrent
// executions, and none of it may leak into a Result.
func TestSeedCorpusParityAcrossWorkers(t *testing.T) {
	scenarios := corpusScenarios(t)
	campaign := func(mode engine.DeliveryMode, workers int) string {
		outs, err := exec.MapN(len(scenarios), workers, func(i int) (string, error) {
			res, err := corpusRun(scenarios[i], engine.WithDelivery(mode))
			if err != nil {
				return "", err
			}
			return resultFingerprint(res), nil
		})
		if err != nil {
			t.Fatalf("campaign (mode %v, workers %d): %v", mode, workers, err)
		}
		return strings.Join(outs, "\n")
	}

	want := campaign(engine.DeliverPerMessage, 1)
	for _, workers := range []int{1, 4} {
		for _, mode := range []engine.DeliveryMode{engine.DeliverBatched, engine.DeliverPerMessage} {
			if got := campaign(mode, workers); got != want {
				t.Errorf("corpus fingerprints diverge (mode %v, workers %d)", mode, workers)
			}
		}
	}
}
