package fuzz

import (
	"fmt"
	"math/rand"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/inject"
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

// TestSeedCorpusTimeModelParity is the tentpole's anchor: with zero
// delay, zero skew and timeouts disabled, EventuallySynchronous must be
// byte-identical to Lockstep — over every committed regression seed,
// both state representations, both delivery modes and both reception
// modes. The eventually-synchronous machinery may cost nothing when its
// knobs are off; any fingerprint drift here means a hold/retransmit
// code path leaked into the synchronous schedule.
func TestSeedCorpusTimeModelParity(t *testing.T) {
	for _, sc := range corpusScenarios(t) {
		sc := stripTiming(sc)
		t.Run(sc.Protocol+"_"+sc.Behavior.Kind, func(t *testing.T) {
			for _, mode := range []engine.DeliveryMode{engine.DeliverBatched, engine.DeliverPerMessage} {
				for _, rec := range []engine.ReceptionMode{engine.ReceiveGroupShared, engine.ReceivePerRecipient} {
					for _, rep := range stateReps {
						run := func(tm engine.TimeModel) string {
							res, err := corpusRun(sc,
								engine.WithDelivery(mode),
								engine.WithReception(rec),
								engine.WithTimeModel(tm),
								engine.WithStateRep(rep.mk()),
							)
							if err != nil {
								t.Fatalf("%s/%v/%v/%s: %v", tm.Describe(), mode, rec, rep.name, err)
							}
							return resultFingerprint(res)
						}
						want := run(engine.Lockstep{})
						got := run(engine.EventuallySynchronous{})
						if got != want {
							t.Errorf("esync(zero-knob)/%v/%v/%s diverges from lockstep:\ngot:  %s\nwant: %s",
								mode, rec, rep.name, got, want)
						}
					}
				}
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

// TestRetransmitDeterminism pins the timing machinery's determinism: a
// derived esync scenario with delays, reorders, stalls and
// retransmission produces one fingerprint across both state
// representations, both delivery modes and repeated runs. Holds are
// drained in deterministic pending-queue order and drained bodies stamp
// behind the round's fresh traffic, so neither the state representation
// nor delivery granularity may show through.
func TestRetransmitDeterminism(t *testing.T) {
	for _, base := range corpusScenarios(t) {
		sc := timingVariant(base)
		t.Run(sc.Protocol+"_"+sc.Behavior.Kind, func(t *testing.T) {
			var want string
			for run := 0; run < 2; run++ {
				for _, mode := range []engine.DeliveryMode{engine.DeliverBatched, engine.DeliverPerMessage} {
					for _, rep := range stateReps {
						res, err := corpusRun(sc, engine.WithDelivery(mode), engine.WithInvariants(), engine.WithStateRep(rep.mk()))
						if err != nil {
							t.Fatalf("run %d/%v/%s: %v", run, mode, rep.name, err)
						}
						got := resultFingerprint(res) + fmt.Sprintf("|%s", res.Stopped)
						if want == "" {
							want = got
						} else if got != want {
							t.Errorf("run %d/%v/%s diverges:\ngot:  %s\nwant: %s",
								run, mode, rep.name, got, want)
						}
					}
				}
			}
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
