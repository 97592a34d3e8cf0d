package engine_test

import (
	"testing"

	"homonyms/internal/engine"
)

// TestGroupReceptionParity pins the reception invariant: group-shared
// reception produces the Result of filling every inbox on its own (the
// reference interpreter) — decisions, rounds, statistics and recorded
// traffic included — on every configuration of the routing feature
// matrix, under both state representations ("sim" steps Concrete,
// "runtime" Counting).
func TestGroupReceptionParity(t *testing.T) {
	reps := map[string]func(engine.Config) (*engine.Result, error){
		"sim":     run,
		"runtime": runCounting,
	}
	for name, cfg := range parityConfigs() {
		for repName, run := range reps {
			t.Run(name+"/"+repName, func(t *testing.T) { holdToRefmodel(t, cfg, run) })
		}
	}
}

// TestBatchedRecordMatchesPerMessage pins the traffic record: recording
// rounds stay on the batched path, and the bitmap-reconstructed
// Delivered stream must equal per-message delivery's send-major order
// entry for entry.
func TestBatchedRecordMatchesPerMessage(t *testing.T) {
	for name, cfg := range parityConfigs() {
		if cfg.RecordTraffic {
			t.Run(name, func(t *testing.T) { holdToRefmodel(t, cfg, run) })
		}
	}
}
