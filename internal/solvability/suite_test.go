package solvability

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"homonyms/internal/fuzz"
	"homonyms/internal/hom"
)

// TestSuiteShape pins how many scenarios a solvable cell runs, which is
// what CellCost charges: assignments × behaviors, one fault-free run per
// assignment at t = 0, plus one crash-band run per c ≤ min(Crashes, t).
func TestSuiteShape(t *testing.T) {
	size := SuiteSize{Assignments: 2, Behaviors: 3, Crashes: 5}
	for _, tc := range []struct {
		p    hom.Params
		want int
	}{
		{hom.Params{N: 7, L: 7, T: 2, Synchrony: hom.Synchronous}, 2*3 + 2},
		{hom.Params{N: 4, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}, 2*3 + 1},
		{hom.Params{N: 3, L: 1, T: 0, Synchrony: hom.Synchronous}, 2},
	} {
		runs := suite(tc.p, size, 1)
		if len(runs) != tc.want {
			t.Errorf("%v: %d scenarios, want %d", tc.p, len(runs), tc.want)
		}
		for _, sc := range runs {
			if sc.Params().String() != tc.p.String() {
				t.Errorf("%v: scenario runs %v", tc.p, sc.Params())
			}
			if _, err := sc.Config(); err != nil {
				t.Errorf("%v: %v", tc.p, err)
			}
		}
	}
}

// TestCellCostCountsTheSuite: CellCost charges a solvable cell one run's
// cost per scenario its suite lists, counted without building the suite,
// over n = 2..30, t = 0..9, every variant and four suite sizes.
func TestCellCostCountsTheSuite(t *testing.T) {
	sizes := []SuiteSize{
		{Assignments: 1, Behaviors: 1},
		{Assignments: 2, Behaviors: 2, Crashes: 1},
		DefaultSuite(),
		{Assignments: 2, Behaviors: 3, Crashes: 5},
	}
	var ns, ts []int
	for n := 2; n <= 30; n++ {
		ns = append(ns, n)
	}
	for tt := 0; tt <= 9; tt++ {
		ts = append(ts, tt)
	}
	for _, v := range Variants() {
		for _, p := range GridParams(ns, ts, v) {
			if !p.Solvable() {
				continue
			}
			oneRun := CellCost(p, sizes[0])
			for _, size := range sizes {
				runs := len(suite(p, size, 1))
				if got, want := CellCost(p, size), oneRun*int64(max(runs, 1)); got != want {
					t.Fatalf("%v %+v: CellCost = %d, want %d (%d runs)", p, size, got, want, runs)
				}
			}
		}
	}
}

// TestMismatchDetailReplays: a failing suite run makes the cell a
// Mismatch whose Detail ends with that run as a one-line seed file, and
// the seed replays from a directory exactly as cmd/fuzz -replay runs it.
func TestMismatchDetailReplays(t *testing.T) {
	p := hom.Params{N: 4, L: 4, T: 1, Synchrony: hom.Synchronous}
	runs := suite(p, DefaultSuite(), 1)
	runs[1].MaxRounds = 1 // too short to decide: termination fails
	cell, err := evaluateSolvable(&Cell{Params: p, Expect: true}, runs)
	if err != nil {
		t.Fatal(err)
	}
	const marker = "; replay: "
	i := strings.LastIndex(cell.Detail, marker)
	if cell.Outcome != Mismatch || !strings.HasPrefix(cell.Detail, "expected solvable but run 2 failed") || i < 0 {
		t.Fatalf("cell = %s: %s; want a mismatch at run 2 with a replay seed", cell.Outcome, cell.Detail)
	}
	line := cell.Detail[i+len(marker):]
	var sf fuzz.SeedFile
	if strings.Contains(line, "\n") || json.Unmarshal([]byte(line), &sf) != nil {
		t.Fatalf("replay seed is not one line of JSON: %q", line)
	}
	if !reflect.DeepEqual(sf.Scenario, runs[1]) || sf.Expect.Class != fuzz.ClassViolation {
		t.Fatalf("seed pins %+v as %s, want run 2 as a violation", sf.Scenario, sf.Expect.Class)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "mismatch.json"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	replayed, errs, err := fuzz.ReplayDir(dir, fuzz.Options{}, nil)
	if err != nil || replayed != 1 || len(errs) != 0 {
		t.Fatalf("ReplayDir = %d, %v, %v; want the one seed to replay", replayed, errs, err)
	}
}
