package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"homonyms/internal/adversary"
	"homonyms/internal/core"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// TestOpMatchesCoreRun pins that the benchmark's own op assembly is the
// execution core.Run would have produced, on every workload core.Run
// can express: same decisions, decision rounds, rounds, stats and stop
// reason (the digest), so the benchmark measures what a user of the
// façade pays for.
func TestOpMatchesCoreRun(t *testing.T) {
	expressible := 0
	for _, w := range workloads(true) {
		if w.matrix != nil || w.timeModel != nil || w.faults != nil {
			continue // core.Config has no time model
		}
		expressible++
		in := w.buildInput(7)
		got := w.runOp(in, opMode{})
		if got.err != nil {
			t.Fatalf("%s: op failed: %v", w.name, got.err)
		}
		cfg := core.Config{
			Params:     w.params,
			Assignment: in.assignment,
			Inputs:     in.inputs,
			Adversary:  in.adversary,
			GST:        w.gst,
		}
		if w.counting {
			cfg.StateRep = "counting"
		}
		want, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s: core.Run: %v", w.name, err)
		}
		if !want.Verdict.OK() {
			t.Fatalf("%s: core.Run verdict: %s", w.name, want.Verdict)
		}
		digest, rounds := digestResult(want.Sim)
		if got.digest != digest || got.rounds != rounds || got.stats != want.Sim.Stats {
			t.Errorf("%s: op (digest %016x, decided at %d, stats %+v) differs from core.Run (digest %016x, decided at %d, stats %+v)",
				w.name, got.digest, got.rounds, got.stats, digest, rounds, want.Sim.Stats)
		}
	}
	if expressible != 4 {
		t.Errorf("expected 4 workloads expressible through core.Run, found %d", expressible)
	}
}

// plainAdversary implements only the required Adversary methods.
type plainAdversary struct{}

func (plainAdversary) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int { return nil }
func (plainAdversary) Sends(int, int, *engine.View) []msg.TargetedSend       { return nil }
func (plainAdversary) Drop(int, int, int) bool                               { return false }

type observingAdversary struct {
	adversary.Composite
	seen int
}

func (o *observingAdversary) Observe(_ int, d []msg.Delivered) { o.seen += len(d) }

// TestWrappedAdversaryKeepsOptionalMethods pins that the tracing
// wrapper exposes BatchDropper and Observer exactly when the wrapped
// adversary does: the engine picks its drop path and its delivery
// recording by asserting them, so a wrapper that added or hid one would
// change the execution it claims to observe.
func TestWrappedAdversaryKeepsOptionalMethods(t *testing.T) {
	tr := newTracer(false)
	cases := []struct {
		name           string
		adv            engine.Adversary
		batch, observe bool
	}{
		{"composite", &adversary.Composite{}, true, false},
		{"plain", plainAdversary{}, false, false},
		{"observer", &observingAdversary{}, true, true},
	}
	for _, c := range cases {
		wrapped := tr.wrapAdversary(c.adv)
		if _, ok := wrapped.(engine.BatchDropper); ok != c.batch {
			t.Errorf("%s: wrapped BatchDropper = %v, want %v", c.name, ok, c.batch)
		}
		if _, ok := wrapped.(engine.Observer); ok != c.observe {
			t.Errorf("%s: wrapped Observer = %v, want %v", c.name, ok, c.observe)
		}
	}
}

// TestTracedOpReproducesUntraced pins that the wrappers do not perturb
// the execution: every workload's traced op has the untraced op's
// digest, and under Counting() a wrapped process still collapses (same
// final class count — the wrapper passes Cloner and StateHasher
// through).
func TestTracedOpReproducesUntraced(t *testing.T) {
	for _, w := range workloads(true) {
		in := w.buildInput(3)
		plain := w.runOp(in, opMode{})
		tr := newTracer(false)
		traced := w.runOp(in, opMode{tr: tr})
		if plain.err != nil || traced.err != nil {
			t.Fatalf("%s: op failed: untraced %v, traced %v", w.name, plain.err, traced.err)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: traced digest %016x differs from untraced %016x", w.name, traced.digest, plain.digest)
		}
		if w.counting {
			if plain.classes == 0 || plain.classes >= w.params.N/2 {
				t.Errorf("%s: untraced run ended with %d classes for n=%d; expected a collapse", w.name, plain.classes, w.params.N)
			}
			if traced.classes != plain.classes {
				t.Errorf("%s: wrapped processes ended with %d classes, unwrapped with %d (collapse defeated)", w.name, traced.classes, plain.classes)
			}
		}
		tr.fold()
		if w.matrix == nil && tr.calls[spanProtoReceive] == 0 {
			t.Errorf("%s: traced op recorded no protocol.receive call", w.name)
		}
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// program emits from: same workloads and reasons, same metric names,
// units, directions and bounds, in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if got := strings.Join(doc.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command is %q, want go run ./benchmark", got)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths are %v, want [benchmark]", doc.Paths)
	}
	ws := workloads(false)
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d+%d metrics, the program has %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		d := doc.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, d, m)
		}
	}
	for i, m := range perLayer {
		d := doc.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %+v", i, d, m)
		}
	}
}

func metricNames(defs ...[]metricDef) []string {
	var names []string
	for _, d := range defs {
		for _, m := range d {
			names = append(names, m.name)
		}
	}
	sort.Strings(names)
	return names
}

// runQuick runs one workload's -quick passes in this process and
// returns the result object it printed last.
func runQuick(t *testing.T, workload, trace string) result {
	t.Helper()
	var out bytes.Buffer
	cfg := config{workload: workload, seed: 1, seconds: 1, trace: trace, quick: true}
	if err := runWorkload(cfg, time.Now(), &out); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func emitted(res result) []string {
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestQuickRunEmitsDeclaredMetrics runs every workload's -quick passes
// and pins that the result carries every metric BENCHMARK.json names,
// with its unit, and no others; that every end-to-end metric is
// non-zero on every workload; and that -trace 0 and -trace 1 split the
// metrics into the end-to-end and the per-layer set.
func TestQuickRunEmitsDeclaredMetrics(t *testing.T) {
	units := make(map[string]string)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	want := strings.Join(metricNames(endToEnd, perLayer), " ")
	for _, w := range workloads(true) {
		res := runQuick(t, w.name, "")
		if got := strings.Join(emitted(res), " "); got != want {
			t.Errorf("%s: emitted metrics\n%s\nwant\n%s", w.name, got, want)
		}
		for name, v := range res.Metrics {
			if v.Unit != units[name] {
				t.Errorf("%s: %s has unit %q, want %q", w.name, name, v.Unit, units[name])
			}
		}
		for _, m := range endToEnd {
			if res.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.name, res.Metrics[m.name].Value)
			}
		}
	}
	first := workloads(true)[0].name
	if got, want := strings.Join(emitted(runQuick(t, first, "0")), " "), strings.Join(metricNames(endToEnd), " "); got != want {
		t.Errorf("-trace 0 emitted\n%s\nwant\n%s", got, want)
	}
	if got, want := strings.Join(emitted(runQuick(t, first, "1")), " "), strings.Join(metricNames(perLayer), " "); got != want {
		t.Errorf("-trace 1 emitted\n%s\nwant\n%s", got, want)
	}
}

// TestSelfTimeAccounting pins the tracer's arithmetic on a hand-built
// op: a span's self time is its duration minus what its child spans and
// leaf calls cover, and the layers add up to the op.
func TestSelfTimeAccounting(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []span{
		{kind: spanOp, parent: -1, start: 0, end: 100},
		{kind: spanRun, parent: 0, start: 10, end: 90},
		{kind: spanDeliver, parent: 1, start: 20, end: 70, leaf: 30},
	}
	tr.leafNS[spanProtoReceive] = 30
	tr.leafCalls[spanProtoReceive] = 3
	tr.fold()
	want := map[spanKind]int64{spanOp: 20, spanRun: 30, spanDeliver: 20, spanProtoReceive: 30}
	var sum int64
	for k := spanKind(0); k < numSpanKinds; k++ {
		if tr.self[k] != want[k] {
			t.Errorf("%s self = %d, want %d", spanNames[k], tr.self[k], want[k])
		}
		sum += tr.self[k]
	}
	if sum != tr.opWall || tr.opWall != 100 {
		t.Errorf("self times sum to %d, op wall is %d, want both 100", sum, tr.opWall)
	}
	if tr.calls[spanProtoReceive] != 3 || tr.ops != 1 || len(tr.kept) != 3 {
		t.Errorf("calls=%d ops=%d kept=%d, want 3, 1, 3", tr.calls[spanProtoReceive], tr.ops, len(tr.kept))
	}
}
