package fuzz

import (
	"path/filepath"
	"testing"

	"homonyms/internal/engine"
)

// loadTestdataSeed loads one committed seed by name and fails the test
// on any problem.
func loadTestdataSeed(t testing.TB, name string) SeedFile {
	t.Helper()
	sf, err := loadSeed(filepath.Join("testdata", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return sf
}

// runSeedEngine replays a seed's scenario straight through the engine so
// the test can see execution stats the fuzz outcome does not carry.
func runSeedEngine(t *testing.T, sf SeedFile) *engine.Result {
	t.Helper()
	res, err := corpusRun(sf.Scenario)
	if err != nil {
		t.Fatalf("seed %s: engine: %v", sf.Name, err)
	}
	return res
}

// TestRecoverySeedRetransmits pins what the committed recovery seed is
// for: a pre-GST delay window holds deliveries toward stabilisation, the
// retransmit timer actually fires, and the run still decides everywhere
// with a clean verdict. (The strict counterfactual — retransmission as
// the only path to decision — lives in the engine's gather-protocol
// unit tests; the agreement protocols re-broadcast fresh state every
// round, so a corpus seed can only witness the machinery, not the
// counterfactual.)
func TestRecoverySeedRetransmits(t *testing.T) {
	sf := loadTestdataSeed(t, "psynchom-esync-retransmit-recovery")
	if _, err := Replay(sf, Options{}); err != nil {
		t.Fatal(err)
	}
	res := runSeedEngine(t, sf)
	if res.Stats.TimingHolds == 0 {
		t.Error("recovery seed produced no held deliveries — the delay window is inert")
	}
	if res.Stats.Retransmits == 0 {
		t.Error("recovery seed produced no retransmissions — the timeout never fired")
	}
	if !res.AllDecided {
		t.Errorf("recovery seed must decide everywhere, got DecidedAt=%v", res.DecidedAt)
	}
}

// TestBudgetStopSeedDegradesGracefully pins the committed budget-stop
// seed: sustained retransmission against an open delay window runs into
// MaxSends and the execution ends with a structured stop, not a hang or
// a panic.
func TestBudgetStopSeedDegradesGracefully(t *testing.T) {
	sf := loadTestdataSeed(t, "psynchom-esync-budget-stop")
	if _, err := Replay(sf, Options{}); err != nil {
		t.Fatal(err)
	}
	res := runSeedEngine(t, sf)
	if res.Stopped != engine.StopMessageBudget {
		t.Errorf("stopped = %q, want %q", res.Stopped, engine.StopMessageBudget)
	}
	if res.Stats.Retransmits == 0 {
		t.Error("budget-stop seed never retransmitted — the budget pressure is not coming from the timer")
	}
	if res.Rounds >= sf.Scenario.MaxRounds {
		t.Errorf("budget stop must end the run early: rounds=%d, MaxRounds=%d", res.Rounds, sf.Scenario.MaxRounds)
	}
}
