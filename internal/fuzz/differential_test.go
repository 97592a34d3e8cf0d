package fuzz

import (
	"encoding/json"
	"flag"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/exec"
	"homonyms/internal/refmodel"
)

// diffCount is TestEngineMatchesRefmodel's budget; CI raises it.
var diffCount = flag.Int("refmodel.count", 1000, "generated scenarios TestEngineMatchesRefmodel runs")

// diffSeed is TestEngineMatchesRefmodel's generator seed.
const diffSeed = 20261015

// TestEngineMatchesRefmodel is the engine's differential test: on
// generated scenarios — every adversary behaviour, drop policy and
// injected fault kind, both time models — the engine under Concrete and
// under Counting must report exactly what the reference interpreter
// reports. Every second scenario also records traffic, hashes per-slot
// histories and runs the engine's paranoid self-checks; in the others a
// round no mask or fault window covers is weighted, so the counting
// representation sends once per class in it. Raise -refmodel.count for
// a longer campaign.
func TestEngineMatchesRefmodel(t *testing.T) {
	scenario := func(i int) Scenario {
		return Generate(rand.New(rand.NewSource(subSeed(diffSeed, i))), GenOptions{MaxN: 8})
	}
	diffs, err := exec.MapN(*diffCount, runtime.GOMAXPROCS(0), func(i int) (string, error) {
		diff, err := holdToRefmodel(scenario(i), i%2 == 1)
		if err != nil {
			diff = err.Error()
		}
		return diff, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var seen strings.Builder
	for i, diff := range diffs {
		raw, _ := json.Marshal(scenario(i))
		if diff != "" {
			t.Fatalf("scenario %d %s\n%s", i, raw, diff)
		}
		seen.Write(raw)
	}
	// The sample must reach every fault kind, drop policy, the esync
	// model with retransmission and a message budget, and a chosen
	// Byzantine slot set.
	for _, field := range []string{`"crashes"`, `"omissions"`, `"duplicates"`, `"replays"`, `"delays"`,
		`"reorders"`, `"stalls"`, `"time_model":"esync"`, `"timeout"`, `"max_sends"`,
		`"drops":{"kind":"random"`, `"drops":{"kind":"targeted"`, `"selector":{"kind":"slots"`} {
		if !strings.Contains(seen.String(), field) {
			t.Errorf("no generated scenario has %s: raise -refmodel.count", field)
		}
	}
}

// holdToRefmodel runs sc in the reference interpreter and on the engine
// under both state representations, and describes the first difference
// ("" when there is none). observed also records traffic and per-slot
// history hashes and runs the engine's paranoid self-checks.
func holdToRefmodel(sc Scenario, observed bool) (string, error) {
	_, diff, err := refmodel.Hold(func() (engine.Config, error) {
		cfg, err := sc.Config()
		cfg.RecordTraffic, cfg.FrontierHash, cfg.Invariants = observed, observed, observed
		return cfg, err
	})
	return diff, err
}

// holdCorpus holds the engine to the reference interpreter on every
// scenario, through the exec worker pool at each worker count — pooled
// interners, arenas and inbox shells recycled across concurrent
// executions may never show in a Result.
func holdCorpus(t *testing.T, scenarios []Scenario, observed bool, workers ...int) {
	t.Helper()
	for _, w := range workers {
		diffs, err := exec.MapN(len(scenarios), w, func(i int) (string, error) {
			return holdToRefmodel(scenarios[i], observed)
		})
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		for i, d := range diffs {
			if d != "" {
				t.Errorf("workers %d, %s_%s: %s", w, scenarios[i].Protocol, scenarios[i].Behavior.Kind, d)
			}
		}
	}
}

// corpusScenarios loads every committed regression seed's scenario.
func corpusScenarios(t *testing.T) (out []Scenario) {
	for _, name := range testdataSeedNames(t) {
		out = append(out, loadTestdataSeed(t, name).Scenario)
	}
	return out
}

// corpusRun replays sc once on the engine.
func corpusRun(sc Scenario) (*engine.Result, error) {
	cfg, err := sc.Config()
	if err != nil {
		return nil, err
	}
	return engine.Run(cfg)
}

// holdCorpusLeg holds the whole committed corpus to the reference
// interpreter through the worker pool at workers 1 and 4 (pooled
// interners, arenas, inbox shells and fill caches may not leak between
// concurrent executions), with traffic and per-slot histories observed
// or not, under each seed's own time model ("own") or with the zero-knob
// eventually-synchronous model forced onto its lockstep seeds ("esync").
func holdCorpusLeg(t *testing.T, timeModel string, observed bool) {
	t.Helper()
	var scenarios []Scenario
	for _, sc := range corpusScenarios(t) {
		if timeModel == "esync" && (sc.TimeModel == "" || sc.TimeModel == "lockstep") {
			sc.TimeModel = timeModel
		}
		scenarios = append(scenarios, sc)
	}
	holdCorpus(t, scenarios, observed, 1, 4)
}

// TestSeedCorpusParityAcrossWorkers holds the corpus, traffic and
// per-slot histories observed, to the reference interpreter under each
// seed's own time model and under forced esync.
func TestSeedCorpusParityAcrossWorkers(t *testing.T) {
	holdCorpusLeg(t, "own", true)
	holdCorpusLeg(t, "esync", true)
}

// TestSeedCorpusGroupReceptionParity holds the corpus to the reference
// interpreter, which fills every inbox on its own, with nothing
// recorded — so group-shared inbox fills carry every round.
func TestSeedCorpusGroupReceptionParity(t *testing.T) {
	holdCorpusLeg(t, "own", false)
}

// TestSeedCorpusCountingParityAcrossWorkers holds the corpus, nothing
// recorded, to the reference interpreter with esync forced onto its
// lockstep seeds (defined to be byte-identical to lockstep): the counting
// representation's cross-round fill caches may not leak between
// concurrent executions under either time model.
func TestSeedCorpusCountingParityAcrossWorkers(t *testing.T) {
	holdCorpusLeg(t, "esync", false)
}

// TestSeedCorpusDeliveryParity holds every committed seed, traffic
// recorded, to the reference interpreter: the engine's batched routing
// must deliver what per-message delivery delivers, in the same
// send-major order.
func TestSeedCorpusDeliveryParity(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		t.Run(sc.Protocol+"_"+sc.Behavior.Kind, func(t *testing.T) {
			holdCorpus(t, []Scenario{sc}, true, 1)
		})
	}
}

// TestSeedCorpusEngineAdapterParity holds each committed seed to the
// reference interpreter on one state machine per slot and on one per
// equivalence class of slots.
func TestSeedCorpusEngineAdapterParity(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		t.Run(sc.Protocol+"_"+sc.Behavior.Kind, func(t *testing.T) {
			holdCorpus(t, []Scenario{sc}, false, 1)
		})
	}
}
