// Command sweep runs the performance parameter sweeps behind the
// benchmark harness and prints figure-style series: decision latency and
// message cost of each algorithm as n, ℓ, t and GST vary. The points of a
// series are independent executions, so each series fans out across
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

	"homonyms/internal/adversary"
	"homonyms/internal/core"
	"homonyms/internal/exec"
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
// dispatch hint only, and measure runs its execution and renders the row.
type point struct {
	cost    int64
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

func measure(p hom.Params, gst int, seed int64) (latency, messages int, err error) {
	inputs := make([]hom.Value, p.N)
	for i := range inputs {
		inputs[i] = hom.Value(i % 2)
	}
	adv := &adversary.Composite{
		Selector: adversary.RandomT{Seed: seed},
		Behavior: adversary.Equivocate{Seed: seed},
	}
	res, err := core.Run(core.Config{Params: p, Inputs: inputs, Adversary: adv, GST: gst})
	if err != nil {
		return 0, 0, err
	}
	if !res.Verdict.OK() {
		return 0, 0, fmt.Errorf("run failed at %s: %s", p, res.Verdict)
	}
	return trace.LatestDecisionRound(res.Sim), res.Sim.Stats.MessagesDelivered, nil
}

// pointCost estimates the relative cost of measuring one series point,
// mirroring solvability.CellCost's single-execution shape: per-round
// delivery work is O(n²) and the round budget grows with ℓ (partially
// synchronous phase cycles), t (EIG depth) and the GST delay. Only the
// ordering matters — the scheduler uses costs as dispatch hints, never
// in results.
func pointCost(p hom.Params, gst int) int64 {
	nn := int64(p.N) * int64(p.N)
	return nn * int64(4*p.L+8*p.T+16+gst)
}

// measured is the point that measures p at GST 1 and prints the leading
// columns cols followed by its decision round and message count.
func measured(p hom.Params, seed int64, cols string) point {
	return point{pointCost(p, 1), func() (string, error) {
		lat, msgs, err := measure(p, 1, seed)
		return fmt.Sprintf("%s %10d %12d", cols, lat, msgs), err
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
			s.points = append(s.points, measured(p, seed, fmt.Sprintf("%6d %6d", n, l)))
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
		s.points = append(s.points, measured(p, seed, fmt.Sprintf("%6d", l)))
	}
	return s
}

func latencyVsGST(seed int64) series {
	s := series{name: "latency-vs-gst",
		title:  "Figure-5 algorithm (psync, n=6, l=5, t=1): decision latency vs GST",
		header: fmt.Sprintf("%6s %10s", "gst", "rounds")}
	p := hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}
	for _, gst := range []int{1, 9, 17, 33, 49} {
		s.points = append(s.points, point{pointCost(p, gst), func() (string, error) {
			inputs := make([]hom.Value, p.N)
			for i := range inputs {
				inputs[i] = hom.Value(i % 2)
			}
			adv := &adversary.Composite{
				Selector: adversary.RandomT{Seed: seed},
				Behavior: adversary.Silent{},
				Drops:    adversary.RandomDrops{Seed: seed, Prob: 0.8},
			}
			res, err := core.Run(core.Config{Params: p, Inputs: inputs, Adversary: adv, GST: gst})
			if err != nil {
				return "", err
			}
			if !res.Verdict.OK() {
				return "", fmt.Errorf("gst=%d: %s", gst, res.Verdict)
			}
			return fmt.Sprintf("%6d %10d", gst, trace.LatestDecisionRound(res.Sim)), nil
		}})
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
		s.points = append(s.points, measured(p, seed, fmt.Sprintf("%6d", l)))
	}
	return s
}
