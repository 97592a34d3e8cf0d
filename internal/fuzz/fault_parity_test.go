package fuzz

import (
	"fmt"
	"strings"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/exec"
	"homonyms/internal/inject"
)

// faultSchedules derives deterministic fault schedules for an n-slot
// execution, one per fault family plus a combined one, so the parity
// sweep exercises every injector code path: crash-stop, crash-recovery,
// send/receive omission (deterministic and probabilistic), duplication
// and stale replay.
func faultSchedules(n int) []*inject.Schedule {
	mid := n / 2
	return []*inject.Schedule{
		{Crashes: []inject.Crash{
			{Slot: 0, Round: 2, Recover: 2},
			{Slot: n - 1, Round: 3},
		}},
		{Omissions: []inject.Omission{
			{Slot: 1 % n, Send: true, From: 2, Until: 6, Prob: 0.5, Seed: 42},
			{Slot: mid, Receive: true, From: 1, Until: 4},
		}},
		{
			Duplicates: []inject.Duplicate{{FromSlot: 0, ToSlot: n - 1, Round: 2}},
			Replays:    []inject.Replay{{FromSlot: n - 1, SourceRound: 2, Round: 4, ToSlot: 0}},
		},
		{
			Crashes:    []inject.Crash{{Slot: mid, Round: 4, Recover: 3}},
			Omissions:  []inject.Omission{{Slot: 0, Send: true, From: 3, Until: 5}},
			Duplicates: []inject.Duplicate{{FromSlot: 1 % n, ToSlot: 0, Round: 3}},
			Replays:    []inject.Replay{{FromSlot: 0, SourceRound: 1, Round: 3, ToSlot: mid}},
		},
	}
}

// faultFingerprint extends the parity fingerprint with the fault-visible
// Result fields: the culprit list and the structured stop reason.
// (Stats, already inside resultFingerprint, covers FaultOmissions.)
func faultFingerprint(r *engine.Result) string {
	return fmt.Sprintf("%s|%v|%s", resultFingerprint(r), r.Faulted, r.Stopped)
}

// TestSeedCorpusFaultParity extends the delivery- and reception-parity
// corpus over injected faults: every committed seed, under every derived
// fault schedule, replays to a byte-identical Result across
// {Concrete, Counting} x {batched, per-message} x
// {group-shared, per-recipient}
// and through the worker pool at workers 1 and 4. This is the tentpole's
// determinism criterion — the injector must be a pure function of
// (round, from, to) on every code path.
func TestSeedCorpusFaultParity(t *testing.T) {
	scenarios := corpusScenarios(t)

	// The flattened work list: every (scenario, schedule) pair.
	type job struct {
		sc     Scenario
		faults *inject.Schedule
	}
	var jobs []job
	for _, sc := range scenarios {
		for _, f := range faultSchedules(sc.N) {
			jobs = append(jobs, job{sc, f})
		}
	}

	campaign := func(rep repMaker, mode engine.DeliveryMode, reception engine.ReceptionMode, workers int) string {
		outs, err := exec.MapN(len(jobs), workers, func(i int) (string, error) {
			res, err := corpusRun(jobs[i].sc, engine.WithFaults(jobs[i].faults), engine.WithStateRep(rep.mk()),
				engine.WithDelivery(mode), engine.WithReception(reception))
			if err != nil {
				return "", err
			}
			return faultFingerprint(res), nil
		})
		if err != nil {
			t.Fatalf("campaign (%s, %v, %v, workers %d): %v", rep.name, mode, reception, workers, err)
		}
		return strings.Join(outs, "\n")
	}

	want := campaign(stateReps[0], engine.DeliverPerMessage, engine.ReceivePerRecipient, 1)
	for _, rep := range stateReps {
		for _, mode := range []engine.DeliveryMode{engine.DeliverBatched, engine.DeliverPerMessage} {
			for _, reception := range []engine.ReceptionMode{engine.ReceiveGroupShared, engine.ReceivePerRecipient} {
				for _, workers := range []int{1, 4} {
					if got := campaign(rep, mode, reception, workers); got != want {
						t.Errorf("fault fingerprints diverge (%s, %v, %v, workers %d)",
							rep.name, mode, reception, workers)
					}
				}
			}
		}
	}
}

// TestFaultSchedulesChangeOutcomes guards against the injector silently
// becoming a no-op: at least one derived schedule must change some
// seed's fingerprint relative to its fault-free replay.
func TestFaultSchedulesChangeOutcomes(t *testing.T) {
	changed, faulted := false, false
	for _, sc := range corpusScenarios(t) {
		base, err := corpusRun(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range faultSchedules(sc.N) {
			res, err := corpusRun(sc, engine.WithFaults(f))
			if err != nil {
				t.Fatal(err)
			}
			// A schedule whose slots are all Byzantine leaves Faulted
			// empty (culprits exclude corrupted slots), so the
			// non-emptiness check is aggregate, not per schedule.
			if len(res.Faulted) > 0 {
				faulted = true
			}
			if faultFingerprint(res) != faultFingerprint(base) {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("no fault schedule changed any corpus execution — injector inert?")
	}
	if !faulted {
		t.Fatal("no fault schedule yielded Faulted culprits on any corpus seed")
	}
}
