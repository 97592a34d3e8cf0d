package fuzz

import (
	"math/rand"
	"testing"

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
// check on a seed chosen so the generator's esync branch is exercised:
// the report digest — which folds every outcome digest in index order —
// must be byte-identical across worker counts even when scenarios carry
// delay schedules and retransmission.
func TestCampaignWorkerParityWithTiming(t *testing.T) {
	cfg := Config{Seed: 20260807, Count: 48, Gen: GenOptions{MaxN: 6}}
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
	timed := 0
	for i := 0; i < cfg.Count; i++ {
		rng := rand.New(rand.NewSource(subSeed(cfg.Seed, i)))
		if sc := Generate(rng, cfg.Gen); sc.TimeModel == "esync" {
			timed++
		}
	}
	if timed == 0 {
		t.Fatal("campaign seed produced no esync scenarios; pick a seed that exercises the timing branch")
	}
	t.Logf("campaign covered %d/%d esync scenarios", timed, cfg.Count)
}
