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
	"os"

	"homonyms/internal/adversary"
	"homonyms/internal/core"
	"homonyms/internal/exec"
	"homonyms/internal/hom"
	"homonyms/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	series := flag.String("series", "all",
		"series to print: latency-vs-n | messages-vs-l | latency-vs-gst | numerate-vs-l | all")
	seed := flag.Int64("seed", 1, "determinism seed")
	workers := flag.Int("workers", exec.Workers(), "parallel executions per series")
	flag.Parse()

	runs := map[string]func(int64, int) error{
		"latency-vs-n":   latencyVsN,
		"messages-vs-l":  messagesVsL,
		"latency-vs-gst": latencyVsGST,
		"numerate-vs-l":  numerateVsL,
	}
	if *series != "all" {
		fn, ok := runs[*series]
		if !ok {
			return fmt.Errorf("unknown series %q", *series)
		}
		return fn(*seed, *workers)
	}
	for _, name := range []string{"latency-vs-n", "messages-vs-l", "latency-vs-gst", "numerate-vs-l"} {
		fmt.Printf("\n=== %s ===\n", name)
		if err := runs[name](*seed, *workers); err != nil {
			return err
		}
	}
	return nil
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

// point is one measured series entry, carried through the worker pool so
// rows print in input order regardless of completion order. A failed
// measurement travels in err so the successfully measured rows of a
// series still print before the failure is reported.
type point struct {
	x, y, latency, messages int
	err                     error
}

// printPoints prints the successfully measured rows in order and returns
// the lowest-index measurement error, if any.
func printPoints(points []point, print func(point)) error {
	var firstErr error
	for _, pt := range points {
		if pt.err != nil {
			if firstErr == nil {
				firstErr = pt.err
			}
			continue
		}
		print(pt)
	}
	return firstErr
}

func latencyVsN(seed int64, workers int) error {
	fmt.Println("Figure-5 algorithm (psync, t=1, l chosen minimal solvable): latency vs n")
	fmt.Printf("%6s %6s %10s %12s\n", "n", "l", "rounds", "messages")
	var params []hom.Params
	for n := 4; n <= 12; n++ {
		l := (n+3)/2 + 1 // smallest l with 2l > n+3t for t=1
		if l > n {
			l = n
		}
		p := hom.Params{N: n, L: l, T: 1, Synchrony: hom.PartiallySynchronous}
		if !p.Solvable() {
			continue
		}
		params = append(params, p)
	}
	points, _ := exec.MapWeighted(params, workers,
		func(_ int, p hom.Params) int64 { return pointCost(p, 1) },
		func(_ int, p hom.Params) (point, error) {
			lat, msgs, err := measure(p, 1, seed)
			return point{x: p.N, y: p.L, latency: lat, messages: msgs, err: err}, nil
		})
	return printPoints(points, func(pt point) {
		fmt.Printf("%6d %6d %10d %12d\n", pt.x, pt.y, pt.latency, pt.messages)
	})
}

func messagesVsL(seed int64, workers int) error {
	fmt.Println("T(EIG) (sync, n=9, t=1): cost vs identifier count l")
	fmt.Printf("%6s %10s %12s\n", "l", "rounds", "messages")
	points, _ := exec.MapNWeighted(6, workers,
		func(i int) int64 {
			return pointCost(hom.Params{N: 9, L: 4 + i, T: 1, Synchrony: hom.Synchronous}, 1)
		},
		func(i int) (point, error) {
			l := 4 + i
			p := hom.Params{N: 9, L: l, T: 1, Synchrony: hom.Synchronous}
			lat, msgs, err := measure(p, 1, seed)
			return point{x: l, latency: lat, messages: msgs, err: err}, nil
		})
	return printPoints(points, func(pt point) {
		fmt.Printf("%6d %10d %12d\n", pt.x, pt.latency, pt.messages)
	})
}

func latencyVsGST(seed int64, workers int) error {
	fmt.Println("Figure-5 algorithm (psync, n=6, l=5, t=1): decision latency vs GST")
	fmt.Printf("%6s %10s\n", "gst", "rounds")
	gsts := []int{1, 9, 17, 33, 49}
	points, _ := exec.MapWeighted(gsts, workers,
		func(_ int, gst int) int64 {
			return pointCost(hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}, gst)
		},
		func(_ int, gst int) (point, error) {
			p := hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}
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
				return point{err: err}, nil
			}
			if !res.Verdict.OK() {
				return point{err: fmt.Errorf("gst=%d: %s", gst, res.Verdict)}, nil
			}
			return point{x: gst, latency: trace.LatestDecisionRound(res.Sim)}, nil
		})
	return printPoints(points, func(pt point) {
		fmt.Printf("%6d %10d\n", pt.x, pt.latency)
	})
}

func numerateVsL(seed int64, workers int) error {
	fmt.Println("Figure-7 algorithm (numerate, restricted, n=7, t=2): works down to l = t+1")
	fmt.Printf("%6s %10s %12s\n", "l", "rounds", "messages")
	points, _ := exec.MapN(5, workers, func(i int) (point, error) {
		l := 3 + i
		p := hom.Params{N: 7, L: l, T: 2, Synchrony: hom.PartiallySynchronous,
			Numerate: true, RestrictedByzantine: true}
		lat, msgs, err := measure(p, 1, seed)
		return point{x: l, latency: lat, messages: msgs, err: err}, nil
	})
	return printPoints(points, func(pt point) {
		fmt.Printf("%6d %10d %12d\n", pt.x, pt.latency, pt.messages)
	})
}
