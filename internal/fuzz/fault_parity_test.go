package fuzz

import (
	"testing"

	"homonyms/internal/inject"
	"homonyms/internal/refmodel"
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

// TestSeedCorpusFaultParity holds the corpus to the reference
// interpreter under injected faults: every committed seed, under every
// derived fault schedule, traffic recorded, through the worker pool at
// workers 1 and 4. The injector must be a pure function of
// (round, from, to) on every code path.
func TestSeedCorpusFaultParity(t *testing.T) {
	var jobs []Scenario
	for _, sc := range corpusScenarios(t) {
		for _, f := range faultSchedules(sc.N) {
			sc.Faults = f
			jobs = append(jobs, sc)
		}
	}
	holdCorpus(t, jobs, true, 1, 4)
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
			sc.Faults = f
			res, err := corpusRun(sc)
			if err != nil {
				t.Fatal(err)
			}
			// A schedule whose slots are all Byzantine leaves Faulted
			// empty (culprits exclude corrupted slots), so the
			// non-emptiness check is aggregate, not per schedule.
			if len(res.Faulted) > 0 {
				faulted = true
			}
			if refmodel.Diff(res, base) != "" {
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
