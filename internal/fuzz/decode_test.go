package fuzz

import (
	"encoding/json"
	"errors"
	"testing"

	"homonyms/internal/hom"
)

// hostileSize asks for a hundred billion slots with no inputs: building
// its per-slot assignment would need most of a terabyte.
const hostileSize = `{"protocol":"synchom","n":100000000000,"l":4,"t":1,"inputs":[]}`

// TestScenarioConfigRejectsHostileSize pins that Config answers an
// oversized scenario with a typed error from its O(1) checks, before
// anything n-sized is built — an allocation that size is a fatal
// out-of-memory crash no recover can catch.
func TestScenarioConfigRejectsHostileSize(t *testing.T) {
	var sc Scenario
	if err := json.Unmarshal([]byte(hostileSize), &sc); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Config(); !errors.Is(err, hom.ErrInputLength) {
		t.Fatalf("Config = %v, want hom.ErrInputLength", err)
	}
}

// FuzzScenarioDecode feeds scenario JSON through decoding and
// Scenario.Config: whatever the bytes, Config returns a config or an
// error and never panics. The committed regression seeds and the
// oversized scenario are the seed corpus.
func FuzzScenarioDecode(f *testing.F) {
	for _, name := range testdataSeedNames(f) {
		raw, err := json.Marshal(loadTestdataSeed(f, name).Scenario)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(hostileSize))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var sc Scenario
		if json.Unmarshal(raw, &sc) != nil {
			return
		}
		cfg, err := sc.Config()
		if err == nil && (len(cfg.Inputs) != sc.N || len(cfg.Assignment) != sc.N || cfg.NewProcess == nil) {
			t.Fatalf("Config accepted %s but built %d inputs and %d slots for n=%d", raw, len(cfg.Inputs), len(cfg.Assignment), sc.N)
		}
	})
}
