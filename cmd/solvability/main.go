// Command solvability regenerates the paper's Table 1 empirically
// (experiment E1): for a grid of (n, t, ℓ) and all four model variants it
// runs the matching algorithm (solvable cells) or the matching lower-bound
// construction (unsolvable cells) and prints the resulting matrix. A cell
// printed as "MISMATCH" would mean the experiments contradict the paper —
// the process exits non-zero in that case.
//
// Usage:
//
//	solvability -nmax 7 -tmax 1 -seed 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"homonyms/internal/solvability"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "solvability:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		nMin    = flag.Int("nmin", 4, "smallest n")
		nMax    = flag.Int("nmax", 7, "largest n")
		tMax    = flag.Int("tmax", 1, "largest t")
		seed    = flag.Int64("seed", 1, "determinism seed")
		quick   = flag.Bool("quick", false, "smaller adversary suite per cell")
		crashes = flag.Int("crashes", 0, "crash-vs-Byzantine band: trade up to this many of each solvable cell's t Byzantine slots for injected crash-recovery faults")
	)
	flag.Parse()

	var ns, ts []int
	for n := *nMin; n <= *nMax; n++ {
		ns = append(ns, n)
	}
	for t := 1; t <= *tMax; t++ {
		ts = append(ts, t)
	}
	suite := solvability.DefaultSuite()
	if *quick {
		suite = solvability.SuiteSize{Assignments: 1, Behaviors: 1}
	}
	suite.Crashes = *crashes

	mismatch := false
	for _, v := range solvability.Variants() {
		fmt.Printf("\n=== %s ===\n", v.Name)
		cells, err := solvability.Matrix(ns, ts, v, suite, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-28s %-10s %-22s %s\n", "params", "table-1", "outcome", "detail")
		fmt.Println(strings.Repeat("-", 110))
		for _, c := range cells {
			expect := "unsolvable"
			if c.Expect {
				expect = "solvable"
			}
			detail := c.Detail
			if len(detail) > 56 {
				detail = detail[:53] + "..."
			}
			params := fmt.Sprintf("n=%d l=%d t=%d", c.Params.N, c.Params.L, c.Params.T)
			// '*' marks cells with bounded-exhaustive evidence from
			// cmd/explore on top of this sampled run.
			if _, ok := solvability.IsExactlyVerified(c.Params); ok {
				params += " *"
			}
			fmt.Printf("%-28s %-10s %-22s %s\n", params, expect, c.Outcome, detail)
			if c.Outcome == solvability.Mismatch || c.Outcome == solvability.Failed {
				mismatch = true
			}
		}
		if ok, bad := solvability.Consistent(cells); !ok {
			fmt.Printf("!! MISMATCH at %v: %s\n", bad.Params, bad.Detail)
		}
	}
	fmt.Println("\n* = bounded-exhaustive evidence (cmd/explore; see solvability.ExactlyVerified)")
	if mismatch {
		return fmt.Errorf("empirical matrix contradicts Table 1 (or a cell failed to evaluate)")
	}
	fmt.Println("All cells consistent with the paper's Table 1.")
	return nil
}
