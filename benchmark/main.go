// Command benchmark is the repository's benchmark: six agreement
// workloads, end-to-end metrics per decision from an untraced pass, and
// per-layer metrics from a traced pass whose spans are taken from
// outside the engine, at its public seams. See README.md in this
// directory for the workloads, every metric's definition and bound, and
// which layer is expected to move which metric on which workload.
//
// One process measures one workload (-workload); without -workload the
// command re-executes itself once per workload, sequentially, so set-up
// time, peak RSS and GC state belong to one workload each.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// result is the last line a single-workload process prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    string // "0" untraced only, "1" traced only, "" both
	traceOut string
	quick    bool
	check    bool
}

func main() {
	procStart := time.Now()
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process (default: all, one child process each)")
	flag.Int64Var(&cfg.seed, "seed", 1, "base seed: op i uses seed+(i mod 4) for the adversary and the input vector")
	flag.Float64Var(&cfg.seconds, "seconds", 6, "length of each measuring pass")
	flag.StringVar(&cfg.trace, "trace", "", "0: untraced pass only (end-to-end metrics); 1: traced pass only (per-layer metrics); default both")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the first seed cycle's spans as JSONL to this file (suffixed .<workload>.jsonl without -workload)")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke run: one seed cycle per pass, n scaled down to at most 4096")
	flag.BoolVar(&cfg.check, "check", false, "run the suite twice and fail if any end-to-end metric differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || (cfg.trace != "" && cfg.trace != "0" && cfg.trace != "1") || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case cfg.workload != "":
		err = runWorkload(cfg, procStart, os.Stdout)
	case cfg.check:
		err = runCheck(cfg, os.Stdout)
	default:
		_, err = runSuite(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errFailedOps makes the command exit non-zero when any op failed its
// correctness gate.
var errFailedOps = errors.New("some ops failed the correctness gate")

// runWorkload measures one workload in this process and prints the
// result object as the last line.
func runWorkload(cfg config, procStart time.Time, out io.Writer) error {
	w, err := workloadByName(cfg.workload, cfg.quick)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(out)
	defer bw.Flush()
	printProvenance(bw, cfg)

	h := &harness{w: w, seed: cfg.seed, quick: cfg.quick, log: bw}
	h.setupAll(procStart)
	d := time.Duration(cfg.seconds * float64(time.Second))

	res := result{Metrics: make(map[string]metricValue)}
	emit := func(pass string, defs []metricDef, values map[string]float64) {
		fmt.Fprintf(bw, "workload %s pass=%s\n", w.name, pass)
		for _, def := range defs {
			v := values[def.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
			fmt.Fprintf(bw, "metric %-36s %-6s %.6g\n", def.name, def.unit, v)
		}
	}
	if cfg.trace != "1" {
		values, err := h.untraced(d)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("untraced samples=%d", len(h.untracedWalls.all())), endToEnd, values)
	}
	if cfg.trace != "0" {
		values, err := h.traced(d, cfg.traceOut)
		if err != nil {
			return err
		}
		emit("traced", perLayer, values)
	}

	res.Attempted, res.Failed = h.attempted, h.failed
	res.Correct = h.failed == 0
	fmt.Fprintf(bw, "workload %s attempted=%d failed=%d failed_ops_share=%g wall_s=%.2f\n",
		w.name, h.attempted, h.failed, float64(h.failed)/float64(h.attempted), time.Since(procStart).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	if h.failed > 0 {
		bw.Flush()
		return errFailedOps
	}
	return nil
}

// runSuite runs every workload in a child process of its own, one
// after the other, and returns each child's result.
func runSuite(cfg config, out io.Writer) (map[string]result, error) {
	start := time.Now()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := make(map[string]result)
	var failed []string
	for _, w := range workloads(cfg.quick) {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds)}
		if cfg.trace != "" {
			args = append(args, "-trace", cfg.trace)
		}
		if cfg.quick {
			args = append(args, "-quick")
		}
		if cfg.traceOut != "" {
			args = append(args, "-trace-out", cfg.traceOut+"."+w.name+".jsonl")
		}
		var buf bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.MultiWriter(out, &buf)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			if runErr != nil {
				return nil, fmt.Errorf("workload %s: %w", w.name, runErr)
			}
			return nil, fmt.Errorf("workload %s: no result line: %w", w.name, err)
		}
		results[w.name] = res
		if runErr != nil || !res.Correct {
			failed = append(failed, w.name)
		}
	}
	fmt.Fprintf(out, "suite workloads=%d failed=%d wall_s=%.2f\n", len(results), len(failed), time.Since(start).Seconds())
	if len(failed) > 0 {
		return results, fmt.Errorf("%w: %s", errFailedOps, strings.Join(failed, ", "))
	}
	return results, nil
}

// runCheck is the repeatability evidence: the suite twice, back to
// back, every (workload, end-to-end metric) pair compared against the
// metric's bound in the direction that counts as worse.
func runCheck(cfg config, out io.Writer) error {
	cfg.trace = "0"
	var runs [2]map[string]result
	for i := range runs {
		fmt.Fprintf(out, "check run %d of %d\n", i+1, len(runs))
		res, err := runSuite(cfg, io.Discard)
		if err != nil {
			return err
		}
		runs[i] = res
	}
	exceeded := 0
	fmt.Fprintf(out, "%-20s %-20s %14s %14s %9s %7s\n", "workload", "metric", "run1", "run2", "worse_by", "bound")
	for _, w := range workloads(cfg.quick) {
		for _, def := range endToEnd {
			a, b := runs[0][w.name].Metrics[def.name].Value, runs[1][w.name].Metrics[def.name].Value
			worse := (b - a) / a
			if def.better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if math.Abs(worse) > def.bound {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(out, "%-20s %-20s %14.6g %14.6g %+8.2f%% %6.0f%% %s\n", w.name, def.name, a, b, 100*worse, 100*def.bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d (workload, metric) pairs differ by more than their bound", exceeded)
	}
	return nil
}

// printProvenance writes the host shape and provenance record every
// output starts with.
func printProvenance(out io.Writer, cfg config) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	rec := struct {
		Go         string  `json:"go"`
		GOOS       string  `json:"goos"`
		GOARCH     string  `json:"goarch"`
		NumCPU     int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		CPU        string  `json:"cpu_model"`
		Seed       int64   `json:"base_seed"`
		Seconds    float64 `json:"pass_seconds"`
		Quick      bool    `json:"quick"`
		Commit     string  `json:"git_commit"`
	}{runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), cfg.seed, cfg.seconds, cfg.quick, commit}
	line, err := json.Marshal(rec)
	if err != nil {
		return // the record is plain strings and numbers; cannot fail
	}
	fmt.Fprintf(out, "provenance %s\n", line)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
