package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. The tables below are the
// benchmark's contract: BENCHMARK.json lists exactly these names and
// units (pinned by the package test), every end-to-end metric is
// emitted for every workload by the untraced pass, and every per-layer
// metric by the traced pass (0 where a layer does not exist on a
// workload).
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the baseline by which an end-to-end metric
	// may worsen before a change counts as a regression; per-layer
	// metrics are explanatory and carry none.
	bound float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_wall_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"alloc_kb_per_op", "kB", "lower", 0.10},
	{"rss_mb", "MB", "lower", 0.15},
	{"rounds_per_decision", "rounds", "lower", 0.20},
	{"msgs_per_decision", "msgs", "lower", 0.25},
}

// perLayer is every layer's self time (µs per op and share of the traced
// op wall), then the counts, ratios and direct-drive timings.
var perLayer = append(layerMetrics(), []metricDef{
	{name: "engine.shared_fill_share", unit: "ratio", better: "higher"},
	{name: "engine.counting_classes_final", unit: "count", better: "lower"},
	{name: "engine.counting_vs_concrete_x", unit: "x", better: "lower"},
	{name: "engine.concrete_twin_route_flush_us", unit: "us", better: "lower"},
	{name: "engine.run_allocs_per_round", unit: "count", better: "lower"},
	{name: "engine.ns_per_delivery", unit: "ns", better: "lower"},
	{name: "engine.rounds", unit: "count", better: "lower"},
	{name: "engine.msgs_sent", unit: "count", better: "lower"},
	{name: "engine.msgs_delivered", unit: "count", better: "lower"},
	{name: "engine.msgs_dropped", unit: "count", better: "lower"},
	{name: "engine.fault_omissions", unit: "count", better: "lower"},
	{name: "engine.timing_holds", unit: "count", better: "lower"},
	{name: "engine.retransmits", unit: "count", better: "lower"},
	{name: "engine.restricted_violations", unit: "count", better: "lower"},
	{name: "engine.payload_kb_per_decision", unit: "kB", better: "lower"},
	{name: "protocol.receive_ns_per_delivery", unit: "ns", better: "lower"},
	{name: "protocol.msgs_over_t2", unit: "x", better: "lower"},
	{name: "adversary.drop_calls", unit: "count", better: "lower"},
	{name: "inject.compile_us", unit: "us", better: "lower"},
	{name: "msg.stamp_ns_per_send", unit: "ns", better: "lower"},
	{name: "msg.fill_ns_per_delivery", unit: "ns", better: "lower"},
	{name: "solvability.cell_ms_p50", unit: "ms", better: "lower"},
	{name: "solvability.cell_ms_max", unit: "ms", better: "lower"},
	{name: "solvability.pass_seq_ms", unit: "ms", better: "lower"},
	{name: "exec.workers", unit: "count", better: "higher"},
	{name: "exec.speedup_x", unit: "x", better: "higher"},
	{name: "exec.efficiency", unit: "ratio", better: "higher"},
	{name: "exec.item_overhead_us", unit: "us", better: "lower"},
	{name: "harness.samples", unit: "count", better: "higher"},
	{name: "harness.op_wall_ms_tail", unit: "ms", better: "lower"},
	{name: "harness.tail_percentile", unit: "%", better: "higher"},
	{name: "harness.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "harness.unattributed_share", unit: "ratio", better: "lower"},
	{name: "harness.setup_first_s", unit: "s", better: "lower"},
	{name: "harness.peak_rss_mb", unit: "MB", better: "lower"},
}...)

// layerOf maps the self-time layers to their span kind: each becomes a
// <name>_us and a <name>_share metric. engine.counting_self is the run
// span's own self time, reported on the counting workloads only.
var layerOf = []struct {
	name string
	kind spanKind
}{
	{"core.select", spanSelect},
	{"engine.new", spanNew},
	{"engine.prepare_self", spanPrepare},
	{"engine.route_flush", spanRouteFlush},
	{"engine.deliver_fill", spanDeliver},
	{"engine.round_tail", spanRoundTail},
	{"engine.teardown", spanTeardown},
	{"protocol.prepare", spanProtoPrepare},
	{"protocol.receive", spanProtoReceive},
	{"adversary.sends", spanAdvSends},
	{"adversary.drop", spanAdvDrop},
	{"trace.check", spanCheck},
	{"solvability.matrix", spanMatrix},
}

func layerMetrics() []metricDef {
	names := []string{"engine.counting_self"}
	for _, l := range layerOf {
		names = append(names, l.name)
	}
	var defs []metricDef
	for _, suffix := range []struct{ name, unit string }{{"_us", "us"}, {"_share", "ratio"}} {
		for _, n := range names {
			defs = append(defs, metricDef{name: n + suffix.name, unit: suffix.unit, better: "lower"})
		}
	}
	return defs
}

// median returns the middle of the sorted copy of xs (mean of the two
// middle values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest percentile of xs that still has at least
// ten samples beyond it, and that percentile; (0, 0) when the sample
// is too small to support any tail above the median.
func tail(xs []float64) (value, percentile float64) {
	n := len(xs)
	if n < 21 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11
	return s[k], 100 * float64(k+1) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// procStatusMB reads one memory field of /proc/self/status, in MB:
// VmRSS is the resident set now, VmHWM its high-water mark.
func procStatusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == field+":" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s not found in /proc/self/status", field)
}
