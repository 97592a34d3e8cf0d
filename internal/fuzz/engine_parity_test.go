package fuzz

import (
	"testing"

	"homonyms/internal/engine"
)

// TestSeedCorpusEngineAdapterParity pins Concrete against Counting: every
// committed regression seed, in each delivery mode, replays to a
// byte-identical Result on one state machine per slot and on one per
// equivalence class of slots.
func TestSeedCorpusEngineAdapterParity(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		sc := sc
		t.Run(sc.Protocol+"_"+sc.Behavior.Kind, func(t *testing.T) {
			for _, mode := range []engine.DeliveryMode{engine.DeliverBatched, engine.DeliverPerMessage} {
				var want string
				for i, rep := range stateReps {
					res, err := corpusRun(sc, engine.WithStateRep(rep.mk()), engine.WithDelivery(mode))
					if err != nil {
						t.Fatalf("%s/%v: %v", rep.name, mode, err)
					}
					if got := resultFingerprint(res); i == 0 {
						want = got
					} else if got != want {
						t.Errorf("%s/%v diverges from %s:\ngot:  %s\nwant: %s",
							rep.name, mode, stateReps[0].name, got, want)
					}
				}
			}
		})
	}
}
