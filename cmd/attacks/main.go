// Command attacks runs each of the paper's lower-bound constructions as a
// live demonstration and prints the exhibited violation:
//
//   - figure4: the partition attack against the Figure-5 algorithm at
//     2ℓ ≤ n+3t (Proposition 4), including the paper's headline anomaly
//     t=1, ℓ=4: n=4 works, n=5 falls.
//   - figure1: the covering scenario against T(EIG) at ℓ = 3t
//     (Proposition 1).
//   - clones: the clone-collapse lockstep of Theorem 19.
//   - mirror: the Lemma-17 indistinguishability behind Proposition 16.
//   - ablations: the Figure-5 vote-superround and decide-relay ablations.
//
// Usage:
//
//	attacks            # run everything
//	attacks -only figure4
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"homonyms/internal/attacks"
	"homonyms/internal/classical"
	"homonyms/internal/exec"
	"homonyms/internal/hom"
	"homonyms/internal/psynchom"
	"homonyms/internal/psyncnum"
	"homonyms/internal/synchom"
)

// demo is one named lower-bound demonstration writing its narration to w.
// cost is a relative work estimate (rounds × n² of the executions the demo
// drives) used for cost-weighted dispatch, so the heavy demonstrations
// start first instead of queueing behind cheap ones.
type demo struct {
	name string
	cost int64
	fn   func(w io.Writer) error
}

func main() {
	if err := run(os.Args[1:], os.Stdout, allDemos); err != nil {
		fmt.Fprintln(os.Stderr, "attacks:", err)
		os.Exit(1)
	}
}

// allDemos is every demonstration, in print order.
var allDemos = []demo{
	{"figure4", 36 * 25, figure4},      // 12 phases × 3 rounds, n=5
	{"figure1", 24 * 16, figure1},      // ~24 rounds of the covering system, n=4
	{"clones", 42 * 49, clones},        // 3×Rounds(EIG-4) ≈ 42 rounds, n=7
	{"mirror", 36 * 64, mirror},        // 12 phases × 3 rounds, n=8, run twice
	{"ablations", 162 * 36, ablations}, // four runs up to 3·(3l+6) phases at l=6
}

func run(args []string, stdout io.Writer, all []demo) error {
	flags := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	only := flags.String("only", "", "run a single demonstration: figure4 | figure1 | clones | mirror | ablations")
	workers := flags.Int("workers", exec.Workers(), "demonstrations to run in parallel")
	flags.Parse(args)

	demos := all[:0:0]
	for _, d := range all {
		if *only == "" || d.name == *only {
			demos = append(demos, d)
		}
	}
	if len(demos) == 0 {
		return fmt.Errorf("unknown demonstration %q", *only)
	}
	// The demonstrations are independent deterministic executions: run them
	// across the worker pool with cost-weighted dispatch (heaviest first),
	// buffer each one's narration, and print in the fixed order above. A
	// failing demo keeps the narration it wrote before failing (none after
	// a panic), so it and every other demo's output print before the
	// first error is reported.
	outs, errs := exec.MapWeightedCollect(demos, *workers,
		func(_ int, d demo) int64 { return d.cost },
		func(_ int, d demo) (string, error) {
			var buf bytes.Buffer
			err := d.fn(&buf)
			return buf.String(), err
		})
	var firstErr error
	for i, out := range outs {
		fmt.Fprintf(stdout, "\n=== %s ===\n%s", demos[i].name, out)
		if err := errs[i]; err != nil {
			fmt.Fprintf(stdout, "!! %s failed: %v\n", demos[i].name, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", demos[i].name, err)
			}
		}
	}
	return firstErr
}

func figure4(w io.Writer) error {
	p := hom.Params{N: 5, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}
	fmt.Fprintf(w, "partition attack at %s (2l = %d <= n+3t = %d)\n", p, 2*p.L, p.N+3*p.T)
	factory := psynchom.New(p, psynchom.Options{})
	rep, err := attacks.Partition(p, factory, 12*hom.RoundsPerPhase)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "internal execution alpha decided by round %d, beta by round %d\n",
		rep.AlphaDecidedRound, rep.BetaDecidedRound)
	fmt.Fprintf(w, "camp X (input 0): slots %v\ncamp Y (input 1): slots %v\n", rep.XSlots, rep.YSlots)
	fmt.Fprintf(w, "gamma verdict: %s\n", rep.Verdict)
	if !rep.Succeeded() {
		return fmt.Errorf("attack did not violate agreement")
	}
	fmt.Fprintln(w, "==> agreement violated exactly as Proposition 4 predicts")
	fmt.Fprintln(w, "    (the same algorithm passes every test at n=4 — the paper's anomaly)")
	return nil
}

func figure1(w io.Writer) error {
	tFaults := 1
	p := hom.Params{N: 4, L: 3 * tFaults, T: tFaults, Synchrony: hom.Synchronous}
	fmt.Fprintf(w, "covering scenario at %s (l = 3t)\n", p)
	alg, err := classical.NewEIGUnchecked(p.L, p.T, nil)
	if err != nil {
		return err
	}
	factory, err := synchom.New(alg, p)
	if err != nil {
		return err
	}
	rep, err := attacks.Covering(p, factory, synchom.Rounds(alg)+6)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "covering system of %d processes ran %d rounds\n", len(rep.Decisions), rep.Rounds)
	for _, v := range rep.Violations {
		fmt.Fprintf(w, "violated obligation: %s\n", v)
	}
	if !rep.Succeeded() {
		return fmt.Errorf("no obligation violated")
	}
	fmt.Fprintln(w, "==> the three overlapping views cannot all be satisfied (Proposition 1)")
	return nil
}

func clones(w io.Writer) error {
	tFaults := 1
	alg, err := classical.NewEIG(4, tFaults, nil)
	if err != nil {
		return err
	}
	p := hom.Params{N: 7, L: 4, T: tFaults, Synchrony: hom.Synchronous, RestrictedByzantine: true}
	factory, err := synchom.New(alg, p)
	if err != nil {
		return err
	}
	assignment := hom.Assignment{1, 1, 1, 2, 3, 4, 4}
	inputs := []hom.Value{1, 1, 1, 0, 1, 0, 0}
	rep, err := attacks.CloneCollapse(p, factory, assignment, inputs, 6, 3*synchom.Rounds(alg))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "clone group %v over %d rounds: lockstep = %v\n", rep.CloneSlots, rep.Rounds, rep.Lockstep())
	if !rep.Lockstep() {
		return fmt.Errorf("clones diverged: %s", rep.Detail)
	}
	fmt.Fprintln(w, "==> innumerate + restricted homonym groups collapse to single processes,")
	fmt.Fprintln(w, "    reducing l <= 3t homonym systems to n = l <= 3t classical ones (Theorem 19)")
	return nil
}

func mirror(w io.Writer) error {
	p := hom.Params{N: 8, L: 2, T: 2, Synchrony: hom.Synchronous,
		Numerate: true, RestrictedByzantine: true}
	fmt.Fprintf(w, "mirror experiment at %s (l = t)\n", p)
	factory := psyncnum.New(p)
	assignment := hom.RoundRobinAssignment(8, 2)
	baseInputs := []hom.Value{0, 0, 0, 0, 1, 1, 1, 1}
	rep, err := attacks.Mirror(p, factory, assignment, baseInputs, 2, 0, 1, 12*hom.RoundsPerPhase)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "flipped slot %d, byzantine twin slot %d\n", rep.FlippedSlot, rep.TwinSlot)
	fmt.Fprintf(w, "indistinguishable to everyone else: %v\n", rep.Indistinguishable)
	if !rep.Indistinguishable {
		return fmt.Errorf("indistinguishability failed: %s", rep.Detail)
	}
	fmt.Fprintln(w, "==> a Byzantine twin erases single-input differences (Lemma 17);")
	fmt.Fprintln(w, "    iterating this across input flips contradicts validity (Proposition 16)")
	return nil
}

func ablations(w io.Writer) error {
	full, err := attacks.SplitLock(psynchom.Options{}, 1, 14*hom.RoundsPerPhase)
	if err != nil {
		return err
	}
	ablated, err := attacks.SplitLock(psynchom.Options{DisableVote: true}, 1, 14*hom.RoundsPerPhase)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A1 vote superround — conflicting-ack phases: full=%v, no-vote=%v\n",
		full.ConflictPhases, ablated.ConflictPhases)
	if !full.LemmaEightHolds() || ablated.LemmaEightHolds() {
		return fmt.Errorf("vote-superround ablation did not behave as expected")
	}
	fmt.Fprintln(w, "==> without votes, one equivocating leader makes correct processes ack")
	fmt.Fprintln(w, "    conflicting values in the same phase (Lemma 8 breaks)")

	const l = 6
	maxRounds := hom.RoundsPerPhase * (3*l + 6)
	withRelay, err := attacks.RelayLatency(l, psynchom.Options{}, maxRounds)
	if err != nil {
		return err
	}
	withoutRelay, err := attacks.RelayLatency(l, psynchom.Options{DisableDecideRelay: true}, maxRounds)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A2 decide relay — decision spread: with relay %d phases, without %d phases\n",
		withRelay.SpreadPhases, withoutRelay.SpreadPhases)
	if withoutRelay.SpreadPhases <= withRelay.SpreadPhases {
		return fmt.Errorf("relay ablation did not widen the decision spread")
	}
	fmt.Fprintln(w, "==> the decide relay collapses termination latency from Θ(l) leader")
	fmt.Fprintln(w, "    rotations to O(1) phases after the first decision")
	return nil
}
