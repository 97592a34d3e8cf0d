// Command homonymsim runs one Byzantine-agreement instance in the homonym
// model and prints the outcome: the algorithm selected per the paper's
// Table 1, each process's decision and decision round, costs, and the
// validity/agreement/termination verdict.
//
// Usage:
//
//	homonymsim -n 6 -l 5 -t 1 -model psync -byz equivocate -gst 17 -seed 7
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"homonyms/internal/core"
	"homonyms/internal/engine"
	"homonyms/internal/fuzz"
	"homonyms/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "homonymsim:", err)
		os.Exit(1)
	}
}

// run writes through one buffer: at n = 10⁶ a write per slot line
// dominated the command. What was printed before an error is still
// flushed.
func run() error {
	out := bufio.NewWriter(os.Stdout)
	err := simulate(out)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	return err
}

func simulate(out io.Writer) error {
	var (
		n          = flag.Int("n", 6, "number of processes")
		l          = flag.Int("l", 5, "number of identifiers")
		t          = flag.Int("t", 1, "byzantine fault bound")
		model      = flag.String("model", "psync", "timing model: sync | psync")
		numerate   = flag.Bool("numerate", false, "processes can count message copies")
		restricted = flag.Bool("restricted", false, "byzantine processes limited to one message per recipient per round")
		byz        = flag.String("byz", "equivocate", "byzantine behavior: none | silent | crash | noise | equivocate | keyequivocate | mimicflood | valueflood")
		assign     = flag.String("assign", "roundrobin", "identifier assignment: roundrobin | stacked | random")
		inputsFlag = flag.String("inputs", "", "comma-free input string, e.g. 010101 (defaults to alternating)")
		gst        = flag.Int("gst", 1, "first round with guaranteed delivery (psync)")
		dropProb   = flag.Float64("drop", 0.5, "pre-GST drop probability (psync)")
		seed       = flag.Int64("seed", 1, "determinism seed")
		maxSends   = flag.Int("maxsends", 0, "message budget: stop the run once this many sends were stamped (0 = unlimited)")
	)
	flag.Parse()

	sc := fuzz.Scenario{
		N: *n, L: *l, T: *t,
		Psync:      *model == "psync",
		Numerate:   *numerate,
		Restricted: *restricted,
		Assignment: *assign,
		AssignSeed: *seed,
		GST:        *gst,
		AdvSeed:    *seed,
		MaxSends:   *maxSends,
	}
	if *model != "sync" && !sc.Psync {
		return fmt.Errorf("unknown model %q", *model)
	}
	p := sc.Params()
	if err := p.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(out, "model: %s\ntable-1: %s\n", p, p.SolvabilityReason())
	if !p.Solvable() {
		fmt.Fprintln(out, "parameters are unsolvable; see `attacks` for the matching lower-bound demonstration")
		return nil
	}

	sc.Protocol = core.Protocol(p.Row())
	var err error
	if sc.Inputs, err = parseInputs(*inputsFlag, p.N); err != nil {
		return err
	}
	if *byz != "none" && p.T > 0 {
		sc.Selector.Kind, sc.Behavior.Kind = "random", *byz
		if sc.Psync {
			sc.Drops = fuzz.DropSpec{Kind: "random", Seed: *seed, Prob: *dropProb}
		}
	}
	cfg, err := sc.Config()
	if err != nil {
		return err
	}
	res, err := engine.Run(cfg)
	if err != nil {
		return err
	}

	a := cfg.Assignment
	fmt.Fprintf(out, "algorithm: %s\nassignment: %v\ninputs: %v\ncorrupted: %v\n",
		core.Algorithm(p.Row()), a, cfg.Inputs, res.Corrupted)
	fmt.Fprintln(out, strings.Repeat("-", 60))
	for s := 0; s < p.N; s++ {
		status := "correct"
		if res.IsCorrupted(s) {
			status = "byzantine"
		}
		if res.DecidedAt[s] > 0 {
			fmt.Fprintf(out, "slot %2d  id %2d  %-9s decided %d at round %d\n",
				s, a[s], status, res.Decisions[s], res.DecidedAt[s])
		} else {
			fmt.Fprintf(out, "slot %2d  id %2d  %-9s undecided\n", s, a[s], status)
		}
	}
	fmt.Fprintln(out, strings.Repeat("-", 60))
	fmt.Fprintf(out, "rounds: %d   latest decision: %d\n", res.Rounds, trace.LatestDecisionRound(res))
	if res.Stopped != "" {
		fmt.Fprintf(out, "stopped early: %s (the execution budget ended the run before MaxRounds)\n", res.Stopped)
	}
	fmt.Fprintf(out, "messages: sent %d, delivered %d, dropped %d, payload %d bytes\n",
		res.Stats.MessagesSent, res.Stats.MessagesDelivered,
		res.Stats.MessagesDropped, res.Stats.PayloadBytes)
	fmt.Fprintf(out, "verdict: %s\n", trace.Check(res))
	return nil
}

// parseInputs reads -inputs: one binary digit per slot, or, when s is
// empty, the alternating vector 0101….
func parseInputs(s string, n int) ([]int, error) {
	inputs := make([]int, n)
	if s == "" {
		for i := range inputs {
			inputs[i] = i % 2
		}
		return inputs, nil
	}
	for i, c := range []rune(s) {
		if c != '0' && c != '1' {
			return nil, fmt.Errorf("inputs string: position %d is %q, want 0 or 1", i, c)
		}
	}
	if len(s) != n {
		return nil, fmt.Errorf("inputs string must have length n = %d", n)
	}
	for i := range inputs {
		inputs[i] = int(s[i] - '0')
	}
	return inputs, nil
}
