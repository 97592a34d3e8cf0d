package fuzz

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"homonyms/internal/hom"
)

// hostileSize asks for a hundred billion slots with no inputs: building
// its per-slot assignment would need most of a terabyte.
const hostileSize = `{"protocol":"synchom","n":100000000000,"l":4,"t":1,"inputs":[]}`

// wideInput proposes 2^40, which no 32-bit Value holds.
const wideInput = `{"protocol":"synchom","n":4,"l":4,"t":1,"inputs":[0,1,0,1099511627776]}`

// TestScenarioConfigInputRange pins that Config refuses an input outside
// 0..math.MaxInt32 with hom.ErrRange instead of narrowing it: 4294967295
// would otherwise wrap to -1, which is hom.NoValue. A script value out
// of int32 range fails decoding.
func TestScenarioConfigInputRange(t *testing.T) {
	for _, tc := range []struct {
		input int
		want  error
	}{
		{0, nil},
		{1, nil},
		{math.MaxInt32, nil},
		{-1, hom.ErrRange},
		{math.MinInt32, hom.ErrRange},
		{math.MaxInt32 + 1, hom.ErrRange},
		{math.MaxUint32, hom.ErrRange},
		{1 << 40, hom.ErrRange},
	} {
		sc := NewScenario("synchom", hom.Params{N: 4, L: 4, T: 1, Synchrony: hom.Synchronous})
		sc.Inputs[3] = tc.input
		cfg, err := sc.Config()
		if !errors.Is(err, tc.want) {
			t.Fatalf("input %d: Config error = %v, want %v", tc.input, err, tc.want)
		}
		if err == nil && int(cfg.Inputs[3]) != tc.input {
			t.Fatalf("input %d: Config built %d", tc.input, cfg.Inputs[3])
		}
	}
	var sc Scenario
	if err := json.Unmarshal([]byte(wideInput), &sc); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Config(); !errors.Is(err, hom.ErrRange) {
		t.Fatalf("Config(%s) = %v, want hom.ErrRange", wideInput, err)
	}
	// A scripted Byzantine value is a hom.Value too: decoding refuses
	// one that does not fit.
	const wideScript = `{"behavior":{"kind":"script","script":[{"round":1,"slot":0,"value":4294967295}]}}`
	var typeErr *json.UnmarshalTypeError
	if err := json.Unmarshal([]byte(wideScript), &sc); !errors.As(err, &typeErr) {
		t.Fatalf("decoding %s = %v, want a json.UnmarshalTypeError", wideScript, err)
	}
}

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
// error and never panics, and a config it accepts holds every input
// unchanged. The committed regression seeds, the oversized scenario and
// the 2^40 input are the seed corpus.
func FuzzScenarioDecode(f *testing.F) {
	for _, name := range testdataSeedNames(f) {
		raw, err := json.Marshal(loadTestdataSeed(f, name).Scenario)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(hostileSize))
	f.Add([]byte(wideInput))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var sc Scenario
		if json.Unmarshal(raw, &sc) != nil {
			return
		}
		cfg, err := sc.Config()
		if err != nil {
			return
		}
		if len(cfg.Inputs) != sc.N || len(cfg.Assignment) != sc.N || cfg.NewProcess == nil {
			t.Fatalf("Config accepted %s but built %d inputs and %d slots for n=%d", raw, len(cfg.Inputs), len(cfg.Assignment), sc.N)
		}
		for i, v := range sc.Inputs {
			if int(cfg.Inputs[i]) != v {
				t.Fatalf("Config accepted %s but narrowed input %d to %d", raw, v, cfg.Inputs[i])
			}
		}
	})
}
