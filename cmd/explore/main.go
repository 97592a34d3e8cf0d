// Command explore runs the bounded-exhaustive model checker
// (internal/explore) over its curated table of Table-1 boundary cells:
// for each frontier of the paper — n = 3t+1 vs n = 3t, l = 3t+1 vs
// l = 3t, 2l > n+3t vs 2l = n+3t, l = t+1 vs l = t — one cell on the
// solvable side (expected: Verified over the whole declared choice
// universe) and its neighbour on the unsolvable side (expected: a
// concrete minimal counterexample, exported as a fuzzer seed that
// cmd/fuzz -replay accepts). Unlike cmd/solvability, which samples a
// finite adversary suite, every verdict here is exhaustive over the
// group-symmetric closure of the declared per-round choice menus up to
// the cell's choice window.
//
// The l = t cell is special: the Figure-7 algorithm keeps its safety
// from n > 3t alone, so its l <= t failure is liveness-only and rests
// on a valency argument (Proposition 16) that no single bounded
// execution exhibits. For that cell the search must come back
// empty-handed and the Lemma-17 mirror experiment, which
// solvability.EvaluateCell runs for every l <= t cell, must establish
// the twin indistinguishability the argument iterates.
//
// Usage:
//
//	explore                     # run every curated cell
//	explore -quick              # the n<=4 CI subset
//	explore -cells A,B          # named cells only
//	explore -harvest DIR        # write counterexample seeds into DIR
//	explore -workers 1          # digest parity checks
//
// The process exits non-zero when any cell misbehaves: a solvable-side
// cell that is not Verified, an unsolvable-side cell with no
// counterexample (or, for the valency cell, no mirror witness), or a
// counterexample classified VIOLATION (a claimed cell broke — a real
// bug, not a lower bound).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"homonyms/internal/explore"
	"homonyms/internal/fuzz"
	"homonyms/internal/solvability"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		names   = flag.String("cells", "", "comma-separated cell names (default: all)")
		quick   = flag.Bool("quick", false, "only the n<=4 CI subset")
		workers = flag.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS; never affects results)")
		wOver   = flag.Int("w", 0, "override every cell's choice window")
		harvest = flag.String("harvest", "", "directory to write counterexample seed files into")
		list    = flag.Bool("list", false, "list the curated cells and exit")
	)
	flag.Parse()

	selected := explore.Cells()
	if *list {
		for _, c := range selected {
			fmt.Printf("%-2s %-38s %-9s %s\n", c.Name, c.Frontier, c.Protocol, c.Params)
		}
		return nil
	}
	if *names != "" {
		want := map[string]bool{}
		for _, nm := range strings.Split(*names, ",") {
			want[strings.TrimSpace(nm)] = true
		}
		var keep []explore.Cell
		for _, c := range selected {
			if want[c.Name] {
				keep = append(keep, c)
				delete(want, c.Name)
			}
		}
		if len(want) > 0 {
			return fmt.Errorf("unknown cells: %v", want)
		}
		selected = keep
	}
	if *quick {
		var keep []explore.Cell
		for _, c := range selected {
			if c.Quick {
				keep = append(keep, c)
			}
		}
		selected = keep
	}

	bad := 0
	for _, c := range selected {
		opts := c.Options
		opts.Workers = *workers
		if *wOver > 0 {
			opts.ChoiceRounds = *wOver
		}
		rep, err := explore.CheckCell(c.Protocol, c.Params, opts)
		if err != nil {
			return fmt.Errorf("cell %s: %w", c.Name, err)
		}
		status, extra, problem := judge(c, rep)
		if problem {
			bad++
		}
		fmt.Printf("%-2s %-38s %-9s %-12s digest=%s\n     %s\n",
			c.Name, c.Frontier, c.Protocol, status, rep.Digest, rep.Detail)
		if extra != "" {
			fmt.Printf("     %s\n", extra)
		}
		if rep.Counterexample != nil && *harvest != "" {
			path := filepath.Join(*harvest, rep.Counterexample.Name+".json")
			if err := fuzz.WriteSeed(path, *rep.Counterexample); err != nil {
				return fmt.Errorf("cell %s: %w", c.Name, err)
			}
			fmt.Printf("     harvested %s\n", path)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d cell(s) misbehaved", bad)
	}
	return nil
}

// judge compares a report against the cell's expectation. A VIOLATION
// counterexample is always a problem (the implementation broke inside
// its claimed region); everything else is judged against the expected
// side of the frontier. The returned extra line, when non-empty, is
// printed under the cell's detail.
func judge(c explore.Cell, rep *explore.Report) (status, extra string, problem bool) {
	if rep.Outcome != nil && rep.Outcome.Class == fuzz.ClassViolation {
		return "VIOLATION", "", true
	}
	switch c.Expect {
	case "verified":
		switch {
		case rep.Verified:
			return "verified", "", false
		case rep.Truncated:
			return "TRUNCATED", "", true
		default:
			return "UNEXPECTED-CE", "", true
		}
	case "counterex":
		if rep.Counterexample != nil {
			return "counterex", "", false
		}
		return "NO-CE", "", true
	case "mirror":
		// The l <= t bound is Proposition 16's valency argument: the
		// algorithm stays safe (n > 3t), so no bounded execution can
		// exhibit a violation — the witness is the Lemma-17
		// indistinguishability experiment that cmd/solvability runs for
		// the row, on top of the (expected empty-handed) bounded search.
		if rep.Counterexample != nil {
			return "counterex", "stronger than the valency witness: a direct violating execution", false
		}
		if rep.Truncated {
			return "TRUNCATED", "", true
		}
		cell, err := solvability.EvaluateCell(c.Params, solvability.SuiteSize{}, 0)
		switch {
		case err != nil:
			return "NO-MIRROR", err.Error(), true
		case cell.Outcome != solvability.Violated:
			return "NO-MIRROR", cell.Detail, true
		}
		return "mirror", cell.Detail, false
	}
	return "BAD-EXPECT", "", true
}
