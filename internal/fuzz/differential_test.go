package fuzz

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
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
// history hashes on both sides and runs the engine's paranoid
// self-checks.
func holdToRefmodel(sc Scenario, observed bool) (string, error) {
	cfg, err := sc.Config()
	if err != nil {
		return "", err
	}
	cfg.RecordTraffic, cfg.FrontierHash = observed, observed
	want, err := refmodel.Run(cfg)
	if err != nil {
		return "", fmt.Errorf("refmodel: %w", err)
	}
	for _, rep := range []engine.StateRep{engine.Concrete(), engine.Counting()} {
		opts := []engine.Option{engine.WithStateRep(rep)}
		if observed {
			opts = append(opts, engine.WithTrafficRecording(), engine.WithFrontierHash(), engine.WithInvariants())
		}
		got, err := corpusRun(sc, opts...)
		if err != nil {
			return "", fmt.Errorf("%s: %w", rep.Describe(), err)
		}
		if d := resultDiff(got, want); d != "" {
			return rep.Describe() + " diverges from refmodel: " + d, nil
		}
	}
	return "", nil
}

// observable lists everything a Result reports, one line per field and
// per recorded delivery.
func observable(r *engine.Result) []string {
	out := []string{
		fmt.Sprintf("Corrupted %v, Faulted %v", r.Corrupted, r.Faulted),
		fmt.Sprintf("Decisions %v", r.Decisions),
		fmt.Sprintf("DecidedAt %v", r.DecidedAt),
		fmt.Sprintf("Rounds %d, GST %d, AllDecided %v, Stopped %q", r.Rounds, r.GST, r.AllDecided, r.Stopped),
		fmt.Sprintf("Stats %+v", r.Stats),
		fmt.Sprintf("SlotHashes %v", r.SlotHashes),
	}
	for _, d := range r.Traffic {
		out = append(out, "Traffic r"+strconv.Itoa(d.Round)+" "+strconv.Itoa(d.FromSlot)+">"+strconv.Itoa(d.ToSlot)+" "+d.Msg.Key())
	}
	return out
}

// resultDiff shows the first line of observable on which got and want
// differ; "" when they agree on everything an execution reports.
func resultDiff(got, want *engine.Result) string {
	g, w := observable(got), observable(want)
	for i := 0; i < max(len(g), len(w)); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			g, w = append(g, "(end)"), append(w, "(end)")
			return fmt.Sprintf("line %d\n got:  %s\n want: %s", i, g[min(i, len(g)-1)], w[min(i, len(w)-1)])
		}
	}
	return ""
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

// corpusRun replays sc once on the engine: its own Config, then the
// overrides.
func corpusRun(sc Scenario, overrides ...engine.Option) (*engine.Result, error) {
	cfg, err := sc.Config()
	if err != nil {
		return nil, err
	}
	return engine.Run(append([]engine.Option{cfg}, overrides...)...)
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

// TestSeedCorpusParityAcrossWorkers replays the whole corpus, traffic
// recorded, through the worker pool at workers 1 and 4.
func TestSeedCorpusParityAcrossWorkers(t *testing.T) {
	holdCorpus(t, corpusScenarios(t), true, 1, 4)
}

// TestSeedCorpusGroupReceptionParity holds the corpus to the reference
// interpreter, which fills every inbox on its own, with nothing
// recorded — so group-shared inbox fills carry every round — at
// workers 1 and 4.
func TestSeedCorpusGroupReceptionParity(t *testing.T) {
	holdCorpus(t, corpusScenarios(t), false, 1, 4)
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
