package fuzz

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
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

// TestScenarioStateRepKnob pins that the retired scenario knobs
// state_rep and max_classes are ignored: a seed's JSON carrying them —
// whatever representation it names, the never-valid "concurrent"
// included — decodes and replays with the outcome and digest of the same
// JSON without them.
func TestScenarioStateRepKnob(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		base := Run(sc, Options{})
		plain, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"counting", "concrete", "concurrent"} {
			knobbed := fmt.Sprintf(`{"state_rep":%q,"max_classes":2,%s`, name, plain[1:])
			var back Scenario
			if err := json.Unmarshal([]byte(knobbed), &back); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := Run(back, Options{}); !reflect.DeepEqual(got, base) {
				t.Errorf("%s with state_rep %q: outcome %+v, without the knob %+v", sc.Protocol, name, got, base)
			}
		}
	}
}
