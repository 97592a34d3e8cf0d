package fuzz

import (
	"math/rand"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/inject"
	"homonyms/internal/refmodel"
)

// stripTiming returns the scenario with its timing dimension removed:
// lockstep time model, zeroed policy knobs and budget, no timing faults.
// The parity suite runs this stripped scenario under both time models —
// the anchor only holds when nothing in the scenario needs esync.
func stripTiming(sc Scenario) Scenario {
	sc.TimeModel = ""
	sc.Bound, sc.Timeout, sc.MaxAttempts, sc.MaxSends = 0, 0, 0, 0
	if sc.Faults.HasTiming() {
		f := *sc.Faults
		f.Delays, f.Reorders, f.Stalls = nil, nil, nil
		sc.Faults = schedOrNil(f)
	}
	return sc
}

// TestSeedCorpusTimeModelParity is the time model's anchor: with zero
// delay, zero skew and timeouts disabled, EventuallySynchronous must be
// byte-identical to Lockstep over every committed regression seed, and
// both must match the reference interpreter. The eventually-synchronous
// machinery may cost nothing when its knobs are off; any drift here
// means a hold/retransmit code path leaked into the synchronous
// schedule.
func TestSeedCorpusTimeModelParity(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		lock := stripTiming(sc)
		es := lock
		es.TimeModel = "esync"
		t.Run(sc.Protocol+"_"+sc.Behavior.Kind, func(t *testing.T) {
			holdCorpus(t, []Scenario{lock, es}, true, 1)
			want, err := corpusRun(lock)
			if err != nil {
				t.Fatal(err)
			}
			got, err := corpusRun(es)
			if err != nil {
				t.Fatal(err)
			}
			if d := refmodel.Diff(got, want); d != "" {
				t.Errorf("esync(zero-knob) diverges from lockstep: %s", d)
			}
		})
	}
}

// timingVariant derives an eventually-synchronous stress scenario from a
// corpus seed: pre-GST link delays (one held until stabilisation, one
// bounded), a reorder, a stall, and retransmission armed with a
// one-round timeout — every new code path of the time model at once.
func timingVariant(sc Scenario) Scenario {
	sc = stripTiming(sc)
	sc.TimeModel = "esync"
	sc.Bound = 2
	sc.Timeout = 1
	sc.MaxAttempts = 3
	var f inject.Schedule
	if sc.Faults != nil {
		f = *sc.Faults
	}
	n := sc.N
	f.Delays = append(f.Delays,
		inject.Delay{FromSlot: 0, ToSlot: n - 1, From: 1, Until: 3, By: 2},
		inject.Delay{FromSlot: 1 % n, ToSlot: 0, From: 1, Until: 2}, // By 0: held until stabilisation
	)
	f.Reorders = append(f.Reorders, inject.Reorder{FromSlot: n - 1, ToSlot: 0, Round: 2})
	f.Stalls = append(f.Stalls, inject.Stall{Slot: n / 2, Round: 2, Rounds: 2})
	sc.Faults = &f
	return sc
}

// TestRetransmitDeterminism pins the timing machinery: a derived esync
// scenario with delays, reorders, stalls and retransmission matches the
// reference interpreter on both state representations, run after run.
// Holds are drained in deterministic pending-queue order and drained
// bodies stamp behind the round's fresh traffic, so neither the state
// representation nor the batching may show through.
func TestRetransmitDeterminism(t *testing.T) {
	for _, base := range corpusScenarios(t) {
		sc := timingVariant(base)
		t.Run(sc.Protocol+"_"+sc.Behavior.Kind, func(t *testing.T) {
			holdCorpus(t, []Scenario{sc, sc}, true, 1)
		})
	}
}

// TestCampaignWorkerParityWithTiming reruns the campaign-determinism
// check where the timing machinery is exercised: the report digest —
// which folds every outcome digest in index order — must be
// byte-identical across worker counts even when scenarios carry delay
// schedules and retransmission. The plain leg picks a seed whose
// generator takes its esync branch; the chaos leg is the timing soak,
// run under the engines' invariants: every scenario timed, some squeezed
// into a message-budget stop, and no violation, panic or harness error.
func TestCampaignWorkerParityWithTiming(t *testing.T) {
	for _, leg := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Seed: 20260807, Count: 48, Gen: GenOptions{MaxN: 6}}},
		{"chaos", Config{Seed: 20260807, Count: 40, Gen: GenOptions{MaxN: 6, Chaos: true}, Invariants: true}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			cfg := leg.cfg
			cfg.Workers = 1
			r1, err := Campaign(cfg)
			if err != nil {
				t.Fatalf("campaign w1: %v", err)
			}
			cfg.Workers = 3
			r3, err := Campaign(cfg)
			if err != nil {
				t.Fatalf("campaign w3: %v", err)
			}
			if r1.Digest != r3.Digest {
				t.Fatalf("campaign digest differs across worker counts: w1=%s w3=%s", r1.Digest, r3.Digest)
			}
			if r1.Format() != r3.Format() {
				t.Fatalf("campaign report differs across worker counts:\n--- w1 ---\n%s--- w3 ---\n%s", r1.Format(), r3.Format())
			}
			if r1.Timed == 0 {
				t.Fatal("campaign seed produced no timed scenarios; pick a seed that exercises the timing branch")
			}
			t.Logf("campaign covered %d/%d timed scenarios", r1.Timed, cfg.Count)
			if !cfg.Gen.Chaos {
				return
			}
			if f := r1.Failures(); f != "" {
				t.Fatalf("chaos campaign not clean:\n%s", f)
			}
			if r1.Timed != cfg.Count {
				t.Errorf("every chaos scenario must carry timing faults, got %d/%d", r1.Timed, cfg.Count)
			}
			if r1.Stops[string(engine.StopMessageBudget)] == 0 {
				t.Errorf("no chaos scenario ended in a message-budget stop: %v", r1.Stops)
			}
		})
	}
}

// TestChaosSoakCleanUnderInvariants is the smoke soak on a second seed
// and a larger n than the parity leg: a chaos campaign under the
// engines' invariants finishes with no real violation, panic or harness
// error, and every scenario carries a timing fault.
func TestChaosSoakCleanUnderInvariants(t *testing.T) {
	rep, err := Campaign(Config{Seed: 7, Count: 60, Gen: GenOptions{MaxN: 7, Chaos: true}, Invariants: true})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if f := rep.Failures(); f != "" {
		t.Fatalf("chaos campaign not clean:\n%s", f)
	}
	if rep.Timed != rep.Count {
		t.Errorf("every chaos scenario must carry timing faults, got %d/%d", rep.Timed, rep.Count)
	}
}

// TestGenerateChaosAlwaysTimes pins the chaos row's scenario shape: the
// esync time model, a schedule with at least one timing fault, and
// policy knobs and budget in range.
func TestGenerateChaosAlwaysTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		sc := Generate(rng, GenOptions{MaxN: 8, Chaos: true})
		if sc.TimeModel != "esync" {
			t.Fatalf("scenario %d: time model %q", i, sc.TimeModel)
		}
		if !sc.Faults.HasTiming() {
			t.Fatalf("scenario %d: no timing faults", i)
		}
		if sc.Bound < 0 || sc.Timeout < 0 || sc.MaxAttempts < 0 || sc.MaxSends < 0 {
			t.Fatalf("scenario %d: knob out of range: %+v", i, sc)
		}
	}
}
