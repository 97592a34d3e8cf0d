package fuzz

import (
	"testing"

	"homonyms/internal/engine"
)

// TestSeedCorpusEngineAdapterParity pins Concrete against
// ConcurrentConcrete: every committed regression seed, in each delivery
// mode, replays to a byte-identical Result on one state machine per slot
// stepped in place and on one goroutine per slot. It runs under the race
// detector in CI, so the concurrent representation's channel
// choreography is exercised for real.
func TestSeedCorpusEngineAdapterParity(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		sc := sc
		t.Run(sc.Protocol+"_"+sc.Behavior.Kind, func(t *testing.T) {
			for _, mode := range []engine.DeliveryMode{engine.DeliverBatched, engine.DeliverPerMessage} {
				var want string
				for i, rep := range concreteReps {
					res, err := corpusRun(sc, engine.WithStateRep(rep.mk()), engine.WithDelivery(mode))
					if err != nil {
						t.Fatalf("%s/%v: %v", rep.name, mode, err)
					}
					if got := resultFingerprint(res); i == 0 {
						want = got
					} else if got != want {
						t.Errorf("%s/%v diverges from %s:\ngot:  %s\nwant: %s",
							rep.name, mode, concreteReps[0].name, got, want)
					}
				}
			}
		})
	}
}
