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

	"homonyms/internal/adversary"
	"homonyms/internal/core"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
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
		byz        = flag.String("byz", "equivocate", "byzantine behavior: none | silent | noise | equivocate | mimicflood")
		assign     = flag.String("assign", "roundrobin", "identifier assignment: roundrobin | stacked | random")
		inputsFlag = flag.String("inputs", "", "comma-free input string, e.g. 010101 (defaults to alternating)")
		gst        = flag.Int("gst", 1, "first round with guaranteed delivery (psync)")
		dropProb   = flag.Float64("drop", 0.5, "pre-GST drop probability (psync)")
		seed       = flag.Int64("seed", 1, "determinism seed")
		maxSends   = flag.Int("maxsends", 0, "message budget: stop the run once this many sends were stamped (0 = unlimited)")
	)
	flag.Parse()

	p := hom.Params{
		N: *n, L: *l, T: *t,
		Numerate:            *numerate,
		RestrictedByzantine: *restricted,
	}
	switch *model {
	case "sync":
		p.Synchrony = hom.Synchronous
	case "psync":
		p.Synchrony = hom.PartiallySynchronous
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(out, "model: %s\ntable-1: %s\n", p, p.SolvabilityReason())
	if !p.Solvable() {
		fmt.Fprintln(out, "parameters are unsolvable; see `attacks` for the matching lower-bound demonstration")
		return nil
	}

	var a hom.Assignment
	switch *assign {
	case "roundrobin":
		a = hom.RoundRobinAssignment(p.N, p.L)
	case "stacked":
		a = hom.StackedAssignment(p.N, p.L)
	case "random":
		a = hom.RandomAssignment(p.N, p.L, *seed)
	default:
		return fmt.Errorf("unknown assignment %q", *assign)
	}

	inputs, err := parseInputs(*inputsFlag, p.N)
	if err != nil {
		return err
	}

	var adv engine.Adversary
	if *byz != "none" && p.T > 0 {
		var beh adversary.Behavior
		switch *byz {
		case "silent":
			beh = adversary.Silent{}
		case "noise":
			beh = adversary.Noise{Seed: *seed}
		case "equivocate":
			beh = adversary.Equivocate{Seed: *seed}
		case "mimicflood":
			beh = adversary.MimicFlood{}
		default:
			return fmt.Errorf("unknown byzantine behavior %q", *byz)
		}
		comp := &adversary.Composite{Selector: adversary.RandomT{Seed: *seed}, Behavior: beh}
		if p.Synchrony == hom.PartiallySynchronous {
			comp.Drops = adversary.RandomDrops{Seed: *seed, Prob: *dropProb}
		}
		adv = comp
	}

	res, err := core.Run(core.Config{
		Params:     p,
		Assignment: a,
		Inputs:     inputs,
		Adversary:  adv,
		GST:        *gst,
		MaxSends:   *maxSends,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "algorithm: %s\nassignment: %v\ninputs: %v\ncorrupted: %v\n",
		res.Algorithm, a, inputs, res.Sim.Corrupted)
	fmt.Fprintln(out, strings.Repeat("-", 60))
	for s := 0; s < p.N; s++ {
		status := "correct"
		if res.Sim.IsCorrupted(s) {
			status = "byzantine"
		}
		if res.Sim.DecidedAt[s] > 0 {
			fmt.Fprintf(out, "slot %2d  id %2d  %-9s decided %d at round %d\n",
				s, a[s], status, res.Sim.Decisions[s], res.Sim.DecidedAt[s])
		} else {
			fmt.Fprintf(out, "slot %2d  id %2d  %-9s undecided\n", s, a[s], status)
		}
	}
	fmt.Fprintln(out, strings.Repeat("-", 60))
	fmt.Fprintf(out, "rounds: %d   latest decision: %d\n", res.Sim.Rounds, trace.LatestDecisionRound(res.Sim))
	if res.Sim.Stopped != "" {
		fmt.Fprintf(out, "stopped early: %s (the execution budget ended the run before MaxRounds)\n", res.Sim.Stopped)
	}
	fmt.Fprintf(out, "messages: sent %d, delivered %d, dropped %d, payload %d bytes\n",
		res.Sim.Stats.MessagesSent, res.Sim.Stats.MessagesDelivered,
		res.Sim.Stats.MessagesDropped, res.Sim.Stats.PayloadBytes)
	fmt.Fprintf(out, "verdict: %s\n", res.Verdict)
	return nil
}

// parseInputs reads -inputs: one binary digit per slot, or, when s is
// empty, the alternating vector 0101….
func parseInputs(s string, n int) ([]hom.Value, error) {
	inputs := make([]hom.Value, n)
	if s == "" {
		for i := range inputs {
			inputs[i] = hom.Value(i % 2)
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
		inputs[i] = hom.Value(s[i] - '0')
	}
	return inputs, nil
}
