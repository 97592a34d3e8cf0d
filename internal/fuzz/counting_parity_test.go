package fuzz

import (
	"errors"
	"strings"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/exec"
)

// TestSeedCorpusCountingParity pins the counting state representation
// against the concrete reference over the whole committed seed corpus:
// every seed, in every delivery x reception combination, must replay to
// a byte-identical Result under engine.Counting() — same decisions,
// decision rounds, effective GST and full statistics. Corpus scenarios
// carry adversaries, drop masks and fault schedules, so this drives the
// representation's slow path (per-member routing, reception
// partitioning, split/merge lifecycle) end to end; the clean fast path
// is pinned by the engine's white-box counting suite.
func TestSeedCorpusCountingParity(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		sc := sc
		t.Run(sc.Protocol+"_"+sc.Behavior.Kind, func(t *testing.T) {
			for _, delivery := range []engine.DeliveryMode{engine.DeliverBatched, engine.DeliverPerMessage} {
				for _, reception := range []engine.ReceptionMode{engine.ReceiveGroupShared, engine.ReceivePerRecipient} {
					run := func(rep engine.StateRep) string {
						opts := []engine.Option{engine.WithDelivery(delivery), engine.WithReception(reception)}
						if rep != nil {
							opts = append(opts, engine.WithStateRep(rep))
						}
						res, err := corpusRun(sc, opts...)
						if err != nil {
							t.Fatalf("%v/%v: %v", delivery, reception, err)
						}
						return resultFingerprint(res)
					}
					want := run(nil)
					if got := run(engine.Counting()); got != want {
						t.Errorf("counting diverges from concrete (%v/%v):\ngot:  %s\nwant: %s",
							delivery, reception, got, want)
					}
				}
			}
		})
	}
}

// TestSeedCorpusCountingParityAcrossWorkers replays the corpus through
// the exec worker pool under counting at several worker counts and both
// time models (lockstep, and the zero-knob eventually-synchronous
// override that is defined to be byte-identical to it): the
// concatenated fingerprints must match the concrete single-worker
// reference everywhere — pooled interners, arenas, inbox shells and the
// counting representation's cross-round fill caches may not leak
// between concurrent executions.
func TestSeedCorpusCountingParityAcrossWorkers(t *testing.T) {
	scenarios := corpusScenarios(t)
	campaign := func(counting bool, workers int, forceTM string) string {
		outs, err := exec.MapN(len(scenarios), workers, func(i int) (string, error) {
			sc := scenarios[i]
			if forceTM != "" && (sc.TimeModel == "" || sc.TimeModel == "lockstep") {
				sc.TimeModel = forceTM
			}
			var opts []engine.Option
			if counting {
				opts = append(opts, engine.WithStateRep(engine.Counting()))
			}
			res, err := corpusRun(sc, opts...)
			if err != nil {
				return "", err
			}
			return resultFingerprint(res), nil
		})
		if err != nil {
			t.Fatalf("campaign (counting %t, workers %d, tm %q): %v", counting, workers, forceTM, err)
		}
		return strings.Join(outs, "\n")
	}
	for _, tm := range []string{"", "esync"} {
		want := campaign(false, 1, tm)
		for _, workers := range []int{1, 4} {
			if got := campaign(true, workers, tm); got != want {
				t.Errorf("counting corpus fingerprints diverge from concrete (workers %d, tm %q)", workers, tm)
			}
		}
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
