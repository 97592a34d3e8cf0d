// Command fuzz drives deterministic scenario-fuzzing campaigns and
// replays regression seeds.
//
// A campaign is a pure function of its seed: scenario i is generated
// from (seed, i), executions fan out over the worker pool, and the
// report — including its digest — is byte-identical across runs and
// worker counts. Real violations (a property broken inside the region
// the implementation claims) exit non-zero; violations outside the
// claimed region are the expected lower-bound demonstrations of the
// paper and can be harvested into replayable JSON seeds.
//
// With -chaos every scenario also carries a dense eventually-synchronous
// timing overlay — link delays held across GST, reorders, round-clock
// stalls, retransmission and, one scenario in four, a squeezed message
// budget — on the same base scenarios the plain campaign draws: the soak
// of the timing machinery, run with -invariants.
//
// Usage:
//
//	fuzz -seed 1 -count 500                  # campaign
//	fuzz -chaos -invariants -seed 1 -count 300
//	                                         # timing soak
//	fuzz -replay internal/fuzz/testdata      # replay committed seeds
//	fuzz -seed 1 -count 500 -harvest DIR -harvest-max 3
//	                                         # write shrunk expected
//	                                         # violations as seed files
//
// Exit status: 0 clean, 1 real violation, panic, harness error or replay
// mismatch, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"homonyms/internal/fuzz"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "campaign seed (scenario i is a pure function of seed and i)")
		count      = flag.Int("count", 500, "number of scenarios to run")
		workers    = flag.Int("workers", 0, "worker pool size (0 = one per CPU)")
		maxN       = flag.Int("maxn", 10, "largest process count to sample")
		protocols  = flag.String("protocols", "", "comma-separated protocol subset (default: all registered)")
		shrink     = flag.Bool("shrink", true, "shrink recorded scenarios to minimal counterexamples")
		out        = flag.String("out", "", "directory to write real-violation seeds into")
		harvest    = flag.String("harvest", "", "directory to write shrunk expected-violation seeds into")
		harvestMax = flag.Int("harvest-max", 3, "how many expected violations to harvest")
		replay     = flag.String("replay", "", "replay every *.json seed in this directory instead of fuzzing")
		invariants = flag.Bool("invariants", false, "run every scenario with the engines' per-round internal checks (paranoid mode)")
		timemodel  = flag.String("timemodel", "", "force a time model onto lockstep scenarios (e.g. esync; scenarios naming their own model keep it)")
		chaos      = flag.Bool("chaos", false, "overlay a dense eventually-synchronous timing schedule on every scenario")
		quiet      = flag.Bool("q", false, "print only the digest line and failures")
	)
	flag.Parse()

	if *replay != "" {
		os.Exit(replayDir(*replay, fuzz.Options{Invariants: *invariants, ForceTimeModel: *timemodel}))
	}

	cfg := fuzz.Config{
		Seed:           *seed,
		Count:          *count,
		Workers:        *workers,
		Gen:            fuzz.GenOptions{MaxN: *maxN, Chaos: *chaos},
		Shrink:         *shrink,
		KeepExpected:   *harvestMax,
		Invariants:     *invariants,
		ForceTimeModel: *timemodel,
	}
	if *protocols != "" {
		cfg.Gen.Protocols = strings.Split(*protocols, ",")
	}
	rep, err := fuzz.Campaign(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *quiet {
		fmt.Printf("fuzz campaign seed=%d count=%d timed=%d digest=%s real=%d panics=%d errors=%d\n",
			rep.Seed, rep.Count, rep.Timed, rep.Digest, len(rep.Real), len(rep.Panics), len(rep.Errors))
		fmt.Fprint(os.Stderr, rep.Failures())
	} else {
		fmt.Print(rep.Format())
	}

	if *out != "" && len(rep.Real) > 0 {
		if code := writeSeeds(*out, "violation", rep.Real); code != 0 {
			os.Exit(code)
		}
	}
	if *out != "" && len(rep.Panics) > 0 {
		if code := writeSeeds(*out, "panic", rep.Panics); code != 0 {
			os.Exit(code)
		}
	}
	if *harvest != "" && len(rep.Expected) > 0 {
		if code := writeSeeds(*harvest, "expected", rep.Expected); code != 0 {
			os.Exit(code)
		}
	}
	if len(rep.Real) > 0 || len(rep.Panics) > 0 || len(rep.Errors) > 0 {
		os.Exit(1)
	}
}

// writeSeeds persists found scenarios (preferring the shrunk form) as
// replayable seed files named <prefix>-<campaign-index>.json.
func writeSeeds(dir, prefix string, found []fuzz.Found) int {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "fuzz:", err)
		return 2
	}
	for _, f := range found {
		o := f.Outcome
		note := "found by cmd/fuzz; " + o.ClaimsWhy
		if f.Shrunk != nil {
			o = f.Shrunk
			note += " (shrunk)"
		}
		name := fmt.Sprintf("%s-%s-%d", prefix, o.Scenario.Protocol, f.Index)
		path := filepath.Join(dir, name+".json")
		if err := fuzz.WriteSeed(path, fuzz.NewSeed(name, note, o)); err != nil {
			fmt.Fprintln(os.Stderr, "fuzz:", err)
			return 2
		}
		fmt.Printf("wrote %s\n", path)
	}
	return 0
}

// replayDir replays a seed corpus and reports mismatches. Seeds whose
// execution ended on a budget stop surface their reason — a seed pinning
// graceful degradation (Expect.Stopped) should say so in the output.
func replayDir(dir string, opts fuzz.Options) int {
	replayed, errs, err := fuzz.ReplayDir(dir, opts, func(name string, o *fuzz.Outcome, err error) {
		if err == nil && o.Stopped != "" {
			fmt.Printf("seed %s: stopped early (%s) after %d rounds\n", name, o.Stopped, o.Rounds)
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "replay:", err)
	}
	fmt.Printf("replayed %d seeds from %s: %d failed\n", replayed, dir, len(errs))
	if len(errs) > 0 {
		return 1
	}
	return 0
}
