// Command sweep runs the performance parameter sweeps behind the
// benchmark harness and prints figure-style series: decision latency and
// message cost of each algorithm as n, ℓ, t and GST vary. A point is the
// worst of eight fuzz scenarios, one per adversary seed, and the points
// of a series are independent, so each series fans out across
// exec.Workers() workers with cost-weighted scheduling (big-n and
// late-GST points dispatch first, so they never queue behind a pool
// drained by cheap points) and prints in deterministic order.
//
// Usage:
//
//	sweep -series latency-vs-n
//	sweep -series all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"homonyms/internal/core"
	"homonyms/internal/engine"
	"homonyms/internal/exec"
	"homonyms/internal/fuzz"
	"homonyms/internal/hom"
	"homonyms/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, allSeries); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer, table func(seed int64) []series) error {
	flags := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	name := flags.String("series", "all",
		"series to print: latency-vs-n | messages-vs-l | latency-vs-gst | numerate-vs-l | all")
	seed := flags.Int64("seed", 1, "determinism seed")
	workers := flags.Int("workers", exec.Workers(), "parallel executions per series")
	flags.Parse(args)

	all := table(*seed)
	if *name != "all" {
		for _, s := range all {
			if s.name == *name {
				return s.print(stdout, *workers)
			}
		}
		return fmt.Errorf("unknown series %q", *name)
	}
	for _, s := range all {
		fmt.Fprintf(stdout, "\n=== %s ===\n", s.name)
		if err := s.print(stdout, *workers); err != nil {
			return err
		}
	}
	return nil
}

// series is one figure-style table.
type series struct {
	name, title, header string
	points              []point
}

// point is one row of a series: cost is its relative work estimate, a
// dispatch hint only, runs are the executions it measures, and measure
// runs them and renders the row.
type point struct {
	cost    int64
	runs    []fuzz.Scenario
	measure func() (string, error)
}

func allSeries(seed int64) []series {
	return []series{latencyVsN(seed), messagesVsL(seed), latencyVsGST(seed), numerateVsL(seed)}
}

// print prints the series' title, header and measured rows in order. A
// failed point prints no row; the lowest-index failure is returned after
// every other row has printed.
func (s series) print(w io.Writer, workers int) error {
	fmt.Fprintln(w, s.title)
	fmt.Fprintln(w, s.header)
	rows, errs := exec.MapNWeightedCollect(len(s.points), workers,
		func(i int) int64 { return s.points[i].cost },
		func(i int) (string, error) { return s.points[i].measure() })
	var firstErr error
	for i, row := range rows {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		fmt.Fprintln(w, row)
	}
	return firstErr
}

// advSeeds is how many adversary seeds a point runs: seed, seed+1, ….
// One seed alone would report whichever slots it happened to corrupt.
const advSeeds = 8

// scenarios lists the executions of one point: p at the given GST
// under each adversary seed, t random slots playing behavior beh and
// pre-GST messages dropped with probability drop.
func scenarios(p hom.Params, gst int, seed int64, beh string, drop float64) []fuzz.Scenario {
	runs := make([]fuzz.Scenario, advSeeds)
	for k := range runs {
		sc := fuzz.NewScenario(core.Protocol(p.Row()), p)
		sc.GST, sc.AdvSeed = gst, seed+int64(k)
		sc.Selector.Kind, sc.Behavior.Kind = "random", beh
		if drop > 0 {
			sc.Drops = fuzz.DropSpec{Kind: "random", Seed: sc.AdvSeed, Prob: drop}
		}
		runs[k] = sc
	}
	return runs
}

// worst runs every scenario and returns the latest decision round over
// them, with the delivered-message count of the first run that decided
// that late.
func worst(runs []fuzz.Scenario) (latency, messages int, err error) {
	for _, sc := range runs {
		cfg, err := sc.Config()
		if err != nil {
			return 0, 0, err
		}
		res, err := engine.Run(cfg)
		if err != nil {
			return 0, 0, err
		}
		if v := trace.Check(res); !v.OK() {
			return 0, 0, fmt.Errorf("run failed at %s, gst %d, adversary seed %d: %s", cfg.Params, sc.GST, sc.AdvSeed, v)
		}
		if r := trace.LatestDecisionRound(res); r > latency {
			latency, messages = r, res.Stats.MessagesDelivered
		}
	}
	return latency, messages, nil
}

// measured is the point that measures runs and prints the leading
// columns cols followed by the worst decision round and, when msgs is
// set, that run's message count. Its cost mirrors
// solvability.CellCost: O(n²) delivery work per round, over a budget
// growing with ℓ (phase cycles), t (EIG depth) and the GST delay.
func measured(runs []fuzz.Scenario, cols string, msgs bool) point {
	p := runs[0].Params()
	cost := int64(p.N) * int64(p.N) * int64(4*p.L+8*p.T+16+runs[0].GST) * int64(len(runs))
	return point{cost, runs, func() (string, error) {
		lat, n, err := worst(runs)
		if !msgs {
			return fmt.Sprintf("%s %10d", cols, lat), err
		}
		return fmt.Sprintf("%s %10d %12d", cols, lat, n), err
	}}
}

func latencyVsN(seed int64) series {
	s := series{name: "latency-vs-n",
		title:  "Figure-5 algorithm (psync, t=1, l chosen minimal solvable): latency vs n",
		header: fmt.Sprintf("%6s %6s %10s %12s", "n", "l", "rounds", "messages")}
	for n := 4; n <= 12; n++ {
		l := min((n+3)/2+1, n) // smallest l with 2l > n+3t for t=1
		p := hom.Params{N: n, L: l, T: 1, Synchrony: hom.PartiallySynchronous}
		if p.Solvable() {
			s.points = append(s.points, measured(scenarios(p, 1, seed, "equivocate", 0), fmt.Sprintf("%6d %6d", n, l), true))
		}
	}
	return s
}

func messagesVsL(seed int64) series {
	s := series{name: "messages-vs-l",
		title:  "T(EIG) (sync, n=9, t=1): cost vs identifier count l",
		header: fmt.Sprintf("%6s %10s %12s", "l", "rounds", "messages")}
	for l := 4; l <= 9; l++ {
		p := hom.Params{N: 9, L: l, T: 1, Synchrony: hom.Synchronous}
		s.points = append(s.points, measured(scenarios(p, 1, seed, "equivocate", 0), fmt.Sprintf("%6d", l), true))
	}
	return s
}

func latencyVsGST(seed int64) series {
	s := series{name: "latency-vs-gst",
		title:  "Figure-5 algorithm (psync, n=6, l=5, t=1): decision latency vs GST",
		header: fmt.Sprintf("%6s %10s", "gst", "rounds")}
	p := hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}
	for _, gst := range []int{1, 9, 17, 33, 49} {
		s.points = append(s.points, measured(scenarios(p, gst, seed, "silent", 0.8), fmt.Sprintf("%6d", gst), false))
	}
	return s
}

func numerateVsL(seed int64) series {
	s := series{name: "numerate-vs-l",
		title:  "Figure-7 algorithm (numerate, restricted, n=7, t=2): works down to l = t+1",
		header: fmt.Sprintf("%6s %10s %12s", "l", "rounds", "messages")}
	for l := 3; l <= 7; l++ {
		p := hom.Params{N: 7, L: l, T: 2, Synchrony: hom.PartiallySynchronous,
			Numerate: true, RestrictedByzantine: true}
		s.points = append(s.points, measured(scenarios(p, 1, seed, "equivocate", 0), fmt.Sprintf("%6d", l), true))
	}
	return s
}
