package fuzz

import (
	"strings"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
)

// panicProcess panics in Prepare of round 2 — a stand-in for a protocol
// bug that only a mid-campaign execution would hit.
type panicProcess struct{}

func (panicProcess) Init(engine.Context)         {}
func (panicProcess) Receive(int, *msg.Inbox)     {}
func (panicProcess) Decision() (hom.Value, bool) { return hom.NoValue, false }
func (panicProcess) Prepare(round int) []msg.Send {
	if round == 2 {
		panic("panicker: injected protocol bug")
	}
	return nil
}

func init() {
	// The panicker target exists only inside the test binary, and Hidden
	// keeps it out of protoreg.Names() so default-generator campaigns
	// (every other test in this package) never draw it.
	protoreg.Register(protoreg.Protocol{
		Name:   "panicker",
		Hidden: true,
		Claims: func(p hom.Params) (bool, string) {
			return false, "test-only panicking protocol claims nothing"
		},
		Constructible: func(p hom.Params) (bool, string) { return true, "ok" },
		New: func(p hom.Params) (func(slot int) engine.Process, error) {
			return func(int) engine.Process { return panicProcess{} }, nil
		},
		Rounds: func(p hom.Params, gst int) int { return gst + 4 },
	})
}

// TestPanickerHidden: the test-only target is reachable by name but
// invisible to the generator's protocol enumeration.
func TestPanickerHidden(t *testing.T) {
	if _, ok := protoreg.Get("panicker"); !ok {
		t.Fatal("panicker not registered")
	}
	for _, name := range protoreg.Names() {
		if name == "panicker" {
			t.Fatal("hidden protocol leaked into protoreg.Names()")
		}
	}
}

// TestRunClassifiesPanic: a panicking scenario becomes a typed
// ClassPanic outcome with a deterministic detail and digest — it does
// not propagate, and it does not masquerade as a harness error.
func TestRunClassifiesPanic(t *testing.T) {
	sc := Scenario{Protocol: "panicker", N: 4, L: 4, T: 0, Assignment: "roundrobin",
		Inputs: []int{0, 1, 0, 1}, GST: 1}
	o := Run(sc, Options{})
	if o.Class != ClassPanic {
		t.Fatalf("class = %s (%s), want %s", o.Class, o.Detail, ClassPanic)
	}
	if want := "panic: panicker: injected protocol bug"; o.Detail != want {
		t.Fatalf("detail = %q, want %q", o.Detail, want)
	}
	if o2 := Run(sc, Options{}); o2.Digest != o.Digest {
		t.Fatalf("panic digest not deterministic: %s vs %s", o.Digest, o2.Digest)
	}
}

// TestCampaignSurvivesPanic is the degradation smoke test: a campaign
// over a mix of panicking and healthy targets completes, records every
// panic (with the scenario that triggered it), keeps classifying the
// healthy scenarios, and stays byte-identical across worker counts.
func TestCampaignSurvivesPanic(t *testing.T) {
	base := Config{Seed: 11, Count: 60, Gen: GenOptions{Protocols: []string{"panicker", "synchom"}}}
	var digests, formats []string
	for _, workers := range []int{1, 4} {
		cfg := base
		cfg.Workers = workers
		rep, err := Campaign(cfg)
		if err != nil {
			t.Fatalf("campaign aborted instead of degrading (workers %d): %v", workers, err)
		}
		if len(rep.Panics) == 0 {
			t.Fatal("campaign recorded no panics despite the panicker target")
		}
		if rep.ByClass[ClassPanic] != len(rep.Panics) {
			t.Fatalf("ByClass[panic] = %d but %d panics recorded", rep.ByClass[ClassPanic], len(rep.Panics))
		}
		for _, f := range rep.Panics {
			if f.Outcome.Scenario.Protocol != "panicker" {
				t.Fatalf("panic recorded against %q", f.Outcome.Scenario.Protocol)
			}
			if !strings.HasPrefix(f.Outcome.Detail, "panic: panicker:") {
				t.Fatalf("panic detail = %q", f.Outcome.Detail)
			}
		}
		if rep.ByClass[ClassOK]+rep.ByClass[ClassExpected]+rep.ByClass[ClassViolation] == 0 {
			t.Fatal("no healthy scenario survived the campaign")
		}
		if len(rep.Errors) > 0 {
			t.Fatalf("panics leaked into harness errors: %v", rep.Errors)
		}
		if got := strings.Count(rep.Failures(), "PANIC at scenario"); got != len(rep.Panics) ||
			!strings.Contains(rep.Format(), rep.Failures()) {
			t.Fatalf("failure lines name %d of %d panics, or the report text omits them", got, len(rep.Panics))
		}
		digests = append(digests, rep.Digest)
		formats = append(formats, rep.Format())
	}
	if digests[0] != digests[1] || formats[0] != formats[1] {
		t.Fatalf("panicking campaign not byte-identical across worker counts:\n%s\n---- vs ----\n%s",
			formats[0], formats[1])
	}
}

// TestShrinkPreservesPanic: the shrinker accepts panic outcomes and
// minimises toward the smallest scenario that still panics.
func TestShrinkPreservesPanic(t *testing.T) {
	sc := Scenario{Protocol: "panicker", N: 6, L: 4, T: 1, Assignment: "random", AssignSeed: 5,
		Inputs: []int{1, 0, 1, 0, 1, 1}, GST: 1, AdvSeed: 2,
		Selector: SelectorSpec{Kind: "first"}, Behavior: BehaviorSpec{Kind: "noise"}}
	o := Run(sc, Options{})
	if o.Class != ClassPanic {
		t.Fatalf("class = %s, want panic", o.Class)
	}
	shrunk, runs := Shrink(o, 100)
	if runs == 0 || shrunk == nil {
		t.Fatal("shrinker refused a panic outcome")
	}
	if shrunk.Class != ClassPanic {
		t.Fatalf("shrunk class = %s, want panic", shrunk.Class)
	}
	if shrunk.Scenario.N > sc.N || shrunk.Scenario.T > sc.T {
		t.Fatalf("shrink did not simplify: %+v", shrunk.Scenario)
	}
}
