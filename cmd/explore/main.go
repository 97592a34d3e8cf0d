// Command explore runs the bounded-exhaustive model checker
// (internal/explore) over a curated table of Table-1 boundary cells:
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
// empty-handed and the Lemma-17 mirror experiment (attacks.Mirror) must
// establish the twin indistinguishability the argument iterates.
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

	"homonyms/internal/attacks"
	"homonyms/internal/explore"
	"homonyms/internal/fuzz"
	"homonyms/internal/hom"
	"homonyms/internal/psyncnum"
)

// cell is one curated boundary cell.
type cell struct {
	name     string
	frontier string // which Table-1 boundary the cell witnesses
	protocol string
	p        hom.Params
	opts     explore.Options
	// expect names the verdict the cell must produce: "verified" (a
	// solvable side must survive the whole declared universe),
	// "counterex" (an unsolvable side must yield a violating execution),
	// or "mirror" (an unsolvable side whose bound is a valency argument
	// — Proposition 16 — that no single bounded execution can witness:
	// the search must find nothing AND the Lemma-17 mirror experiment
	// must establish indistinguishability).
	expect string
	// quick: part of the -quick CI subset.
	quick bool
}

// cells is the curated boundary table. Windows and GST lists are tuned
// per cell to keep the full run in CPU-minutes; -w overrides for deeper
// local searches.
func cells() []cell {
	return []cell{
		{
			name: "A", frontier: "sync solvable: n=3t+1, l=3t+1",
			protocol: "synchom",
			p:        hom.Params{N: 4, L: 4, T: 1, Synchrony: hom.Synchronous},
			opts:     explore.Options{ChoiceRounds: 2},
			expect:   "verified", quick: true,
		},
		{
			name: "B", frontier: "sync unsolvable: l=3t",
			protocol: "synchom",
			p:        hom.Params{N: 4, L: 3, T: 1, Synchrony: hom.Synchronous},
			opts:     explore.Options{ChoiceRounds: 2},
			expect:   "counterex", quick: true,
		},
		{
			name: "C", frontier: "sync unsolvable: n=3t",
			protocol: "synchom",
			p:        hom.Params{N: 3, L: 3, T: 1, Synchrony: hom.Synchronous},
			opts:     explore.Options{ChoiceRounds: 2},
			expect:   "counterex", quick: true,
		},
		{
			name: "D", frontier: "psync solvable: 2l>n+3t",
			protocol: "psynchom",
			p:        hom.Params{N: 2, L: 2, T: 0, Synchrony: hom.PartiallySynchronous},
			opts:     explore.Options{ChoiceRounds: 2, GSTs: []int{1, 2, 3}},
			expect:   "verified", quick: true,
		},
		{
			name: "E", frontier: "psync unsolvable: 2l=n+3t",
			protocol: "psynchom",
			p:        hom.Params{N: 2, L: 1, T: 0, Synchrony: hom.PartiallySynchronous},
			opts:     explore.Options{ChoiceRounds: 2, GSTs: []int{3, 5, 7}},
			expect:   "counterex", quick: true,
		},
		{
			name: "F", frontier: "psync numerate solvable: l=t+1",
			protocol: "psyncnum",
			p: hom.Params{N: 4, L: 2, T: 1, Synchrony: hom.PartiallySynchronous,
				Numerate: true, RestrictedByzantine: true},
			opts:   explore.Options{ChoiceRounds: 1, GSTs: []int{1}},
			expect: "verified", quick: true,
		},
		{
			name: "G", frontier: "psync numerate unsolvable: l=t",
			protocol: "psyncnum",
			p: hom.Params{N: 5, L: 1, T: 1, Synchrony: hom.PartiallySynchronous,
				Numerate: true, RestrictedByzantine: true},
			opts:   explore.Options{ChoiceRounds: 1, GSTs: []int{5, 7}},
			expect: "mirror", quick: true,
		},
	}
}

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

	selected := cells()
	if *list {
		for _, c := range selected {
			fmt.Printf("%-2s %-38s %-9s %s\n", c.name, c.frontier, c.protocol, c.p)
		}
		return nil
	}
	if *names != "" {
		want := map[string]bool{}
		for _, nm := range strings.Split(*names, ",") {
			want[strings.TrimSpace(nm)] = true
		}
		var keep []cell
		for _, c := range selected {
			if want[c.name] {
				keep = append(keep, c)
				delete(want, c.name)
			}
		}
		if len(want) > 0 {
			return fmt.Errorf("unknown cells: %v", want)
		}
		selected = keep
	}
	if *quick {
		var keep []cell
		for _, c := range selected {
			if c.quick {
				keep = append(keep, c)
			}
		}
		selected = keep
	}

	bad := 0
	for _, c := range selected {
		opts := c.opts
		opts.Workers = *workers
		if *wOver > 0 {
			opts.ChoiceRounds = *wOver
		}
		rep, err := explore.CheckCell(c.protocol, c.p, opts)
		if err != nil {
			return fmt.Errorf("cell %s: %w", c.name, err)
		}
		status, extra, problem := judge(c, rep)
		if problem {
			bad++
		}
		fmt.Printf("%-2s %-38s %-9s %-12s digest=%s\n     %s\n",
			c.name, c.frontier, c.protocol, status, rep.Digest, rep.Detail)
		if extra != "" {
			fmt.Printf("     %s\n", extra)
		}
		if rep.Counterexample != nil && *harvest != "" {
			path := filepath.Join(*harvest, rep.Counterexample.Name+".json")
			if err := fuzz.WriteSeed(path, *rep.Counterexample); err != nil {
				return fmt.Errorf("cell %s: %w", c.name, err)
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
func judge(c cell, rep *explore.Report) (status, extra string, problem bool) {
	if rep.Outcome != nil && rep.Outcome.Class == fuzz.ClassViolation {
		return "VIOLATION", "", true
	}
	switch c.expect {
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
		// indistinguishability experiment, run on top of the (expected
		// empty-handed) bounded search.
		if rep.Counterexample != nil {
			return "counterex", "stronger than the valency witness: a direct violating execution", false
		}
		if rep.Truncated {
			return "TRUNCATED", "", true
		}
		ok, detail := mirrorWitness(c.p)
		if ok {
			return "mirror", detail, false
		}
		return "NO-MIRROR", detail, true
	}
	return "BAD-EXPECT", "", true
}

// mirrorWitness runs the Lemma-17 experiment for an l <= t cell, the
// same construction cmd/solvability uses for this region: a Byzantine
// twin holding the flipped slot's identifier replays the correct
// algorithm on the mirrored input, and the two input-adjacent runs must
// be indistinguishable to every other correct process.
func mirrorWitness(p hom.Params) (bool, string) {
	factory := psyncnum.New(p)
	assignment := hom.RoundRobinAssignment(p.N, p.L)
	baseInputs := make([]hom.Value, p.N)
	for i := p.N / 2; i < p.N; i++ {
		baseInputs[i] = 1
	}
	flipped := p.L // first slot of the second rotation holds identifier 1 again
	if flipped >= p.N {
		flipped = p.N - 1
	}
	rep, err := attacks.Mirror(p, factory, assignment, baseInputs, flipped, 0, 1,
		hom.PhaseRounds(p, 1))
	if err != nil {
		return false, err.Error()
	}
	if rep.Indistinguishable {
		return true, fmt.Sprintf("mirror: twin slot %d made input-adjacent configurations indistinguishable (Lemma 17); Proposition 16's valency argument applies", rep.TwinSlot)
	}
	return false, "mirror experiment failed to establish indistinguishability: " + rep.Detail
}
