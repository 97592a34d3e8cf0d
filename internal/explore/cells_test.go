package explore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"homonyms/internal/fuzz"
)

// TestCounterexampleCellsHaveCommittedSeeds holds every counterexample
// cell to a seed in the fuzzer's regression corpus: one whose scenario
// runs the cell's protocol at the cell's n, l, t and model flags and
// pins an expected violation, so cmd/fuzz -replay keeps reproducing the
// harvested lower bound.
func TestCounterexampleCellsHaveCommittedSeeds(t *testing.T) {
	paths, err := filepath.Glob("../fuzz/testdata/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed seeds: %v", err)
	}
	seeds := make([]fuzz.SeedFile, len(paths))
	for i, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &seeds[i]); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for _, c := range Cells() {
		if c.Expect != "counterex" {
			continue
		}
		found := false
		for _, sf := range seeds {
			sc := sf.Scenario
			if sc.Protocol == c.Protocol && sc.Params().String() == c.Params.String() &&
				sf.Expect.Class == fuzz.ClassExpected {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("cell %s (%s %v): no committed counterexample seed", c.Name, c.Protocol, c.Params)
		}
	}
}
