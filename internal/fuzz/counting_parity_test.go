package fuzz

import (
	"errors"
	"strings"
	"testing"

	"homonyms/internal/engine"
)

// TestSeedCorpusCountingParity holds the counting state representation
// to the reference interpreter over the committed corpus, with and
// without traffic recorded. Corpus scenarios carry adversaries, drop
// masks and fault schedules, so this drives the representation's slow
// path (per-member routing, reception partitioning, split/merge
// lifecycle) end to end.
func TestSeedCorpusCountingParity(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		t.Run(sc.Protocol+"_"+sc.Behavior.Kind, func(t *testing.T) {
			holdCorpus(t, []Scenario{sc}, false, 1)
			holdCorpus(t, []Scenario{sc}, true, 1)
		})
	}
}

// TestSeedCorpusCountingParityAcrossWorkers replays the corpus through
// the worker pool at several worker counts under both time models
// (lockstep, and the zero-knob eventually-synchronous override that is
// defined to be byte-identical to it), held to the reference
// interpreter: the counting representation's cross-round fill caches may
// not leak between concurrent executions.
func TestSeedCorpusCountingParityAcrossWorkers(t *testing.T) {
	for _, tm := range []string{"", "esync"} {
		var scenarios []Scenario
		for _, sc := range corpusScenarios(t) {
			if tm != "" && (sc.TimeModel == "" || sc.TimeModel == "lockstep") {
				sc.TimeModel = tm
			}
			scenarios = append(scenarios, sc)
		}
		holdCorpus(t, scenarios, false, 1, 4)
	}
}

// TestScenarioStateRepKnob pins the scenario-level state_rep knob: a
// seed that names "counting" replays through Run with the digest it
// would have produced under the default representation (the knob is
// part of the scenario JSON, so the digest's scenario half shifts, but
// class/properties/rounds must not), and an unknown name — the retired
// "concurrent" included — degrades to a typed error outcome instead of a
// panic.
func TestScenarioStateRepKnob(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		base := Run(sc)
		counted := sc
		counted.StateRep = "counting"
		got := Run(counted)
		if got.Class != base.Class || got.Rounds != base.Rounds || got.Detail != base.Detail {
			t.Errorf("%s: counting outcome diverges: class %s/%s rounds %d/%d detail %q/%q",
				sc.Protocol, got.Class, base.Class, got.Rounds, base.Rounds, got.Detail, base.Detail)
		}
	}
	for _, name := range []string{"holographic", "concurrent"} {
		bogus := corpusScenarios(t)[0]
		bogus.StateRep = name
		out := Run(bogus)
		if out.Class != ClassError || !strings.Contains(out.Detail, "unknown state representation") ||
			!strings.Contains(out.Detail, "want concrete or counting") {
			t.Fatalf("unknown state rep %q: class %s, detail %q", name, out.Class, out.Detail)
		}
	}
	if _, err := engine.StateRepByName("concurrent", 0); !errors.Is(err, engine.ErrUnknownStateRep) {
		t.Fatalf(`StateRepByName("concurrent", 0) = %v, want ErrUnknownStateRep`, err)
	}
}
