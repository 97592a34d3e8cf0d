package explore

import (
	"encoding/json"
	"sync"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/fuzz"
	"homonyms/internal/refmodel"
)

// TestQuickCellsMatchRefmodel is the exhaustive differential: every
// prefix the -quick cells evaluate runs in the reference interpreter and
// on the engine under Concrete and under Counting, and the three Results
// must agree field for field. Each cell must still reach its expected
// verdict.
func TestQuickCellsMatchRefmodel(t *testing.T) {
	var (
		mu               sync.Mutex
		checked, diverge int
		first            string
	)
	defer func(run func(fuzz.Scenario) (*engine.Result, error)) { runScenario = run }(runScenario)
	runScenario = func(sc fuzz.Scenario) (*engine.Result, error) {
		res, diff, err := refmodel.Hold(func() (engine.Config, error) {
			cfg, err := sc.Config()
			cfg.FrontierHash = true
			return cfg, err
		})
		mu.Lock()
		defer mu.Unlock()
		if checked++; diff != "" {
			if diverge++; diverge == 1 {
				raw, _ := json.Marshal(sc)
				first = string(raw) + "\n" + diff
			}
		}
		return res, err
	}
	for _, c := range Cells() {
		if !c.Quick {
			continue
		}
		rep, err := CheckCell(c.Protocol, c.Params, c.Options)
		if err != nil {
			t.Fatalf("cell %s: %v", c.Name, err)
		}
		found := rep.Counterexample != nil
		if rep.Truncated || found != (c.Expect == "counterex") {
			t.Errorf("cell %s (expect %s): %s", c.Name, c.Expect, rep.Detail)
		}
	}
	if diverge > 0 {
		t.Fatalf("%d of %d evaluated executions diverge from refmodel; the first:\n%s", diverge, checked, first)
	}
	t.Logf("%d evaluated executions match refmodel", checked)
}
