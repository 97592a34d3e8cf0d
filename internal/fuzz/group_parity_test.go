package fuzz

import (
	"strings"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/exec"
)

// TestSeedCorpusGroupReceptionParity is the reception modes' golden
// test: every committed fuzz seed replays to a byte-identical Result
// under group-shared reception (the default) and the per-recipient
// reference path, on both state representations, and through
// the worker pool at workers 1 and 4 — so pooled shared cores and views
// recycled across concurrent executions can never leak into a Result.
func TestSeedCorpusGroupReceptionParity(t *testing.T) {
	scenarios := corpusScenarios(t)

	campaign := func(rep repMaker, reception engine.ReceptionMode, workers int) string {
		outs, err := exec.MapN(len(scenarios), workers, func(i int) (string, error) {
			res, err := corpusRun(scenarios[i], engine.WithStateRep(rep.mk()), engine.WithReception(reception))
			if err != nil {
				return "", err
			}
			return resultFingerprint(res), nil
		})
		if err != nil {
			t.Fatalf("campaign (%s, reception %v, workers %d): %v", rep.name, reception, workers, err)
		}
		return strings.Join(outs, "\n")
	}

	want := campaign(stateReps[0], engine.ReceivePerRecipient, 1)
	for _, rep := range stateReps {
		for _, workers := range []int{1, 4} {
			for _, reception := range []engine.ReceptionMode{engine.ReceiveGroupShared, engine.ReceivePerRecipient} {
				if got := campaign(rep, reception, workers); got != want {
					t.Errorf("corpus fingerprints diverge (%s, reception %v, workers %d)",
						rep.name, reception, workers)
				}
			}
		}
	}
}
