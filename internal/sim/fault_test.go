package engine_test

import (
	"errors"
	"strings"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/inject"
)

// TestCrashStop: a crash-stopped slot takes no further steps — it never
// decides, everything sent to it is suppressed, and it is reported as a
// Faulted culprit excluded from CorrectSlots.
func TestCrashStop(t *testing.T) {
	cfg := baseConfig(4, 4, 0)
	cfg.Faults = &inject.Schedule{Crashes: []inject.Crash{{Slot: 2, Round: 1}}}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faulted) != 1 || res.Faulted[0] != 2 {
		t.Fatalf("Faulted = %v, want [2]", res.Faulted)
	}
	if !res.IsFaulted(2) || res.IsFaulted(1) {
		t.Fatal("IsFaulted wrong")
	}
	for _, s := range res.CorrectSlots() {
		if s == 2 {
			t.Fatal("crashed slot still in CorrectSlots")
		}
	}
	if res.DecidedAt[2] != 0 {
		t.Fatalf("crashed slot decided at round %d", res.DecidedAt[2])
	}
	if res.AllDecided {
		t.Fatal("AllDecided with a crash-stopped correct slot")
	}
	if res.Stats.FaultOmissions == 0 {
		t.Fatal("no deliveries suppressed despite a down recipient")
	}
	// The survivors still decide.
	for _, s := range []int{0, 1, 3} {
		if res.DecidedAt[s] == 0 {
			t.Fatalf("surviving slot %d never decided", s)
		}
	}
}

// TestCrashRecovery: a slot down for a bounded window rejoins with its
// pre-crash state and still decides — later than its peers, counted as a
// culprit, but with the same decision value.
func TestCrashRecovery(t *testing.T) {
	cfg := baseConfig(4, 4, 0)
	cfg.Faults = &inject.Schedule{Crashes: []inject.Crash{{Slot: 0, Round: 2, Recover: 2}}}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faulted) != 1 || res.Faulted[0] != 0 {
		t.Fatalf("Faulted = %v, want [0]", res.Faulted)
	}
	if res.DecidedAt[0] == 0 {
		t.Fatal("recovered slot never decided")
	}
	if res.DecidedAt[0] <= res.DecidedAt[1] {
		t.Fatalf("recovered slot decided at %d, not after its peers (%d)", res.DecidedAt[0], res.DecidedAt[1])
	}
	if res.Decisions[0] != res.Decisions[1] {
		t.Fatalf("recovered slot decided %d, peers %d", res.Decisions[0], res.Decisions[1])
	}
}

// TestSendOmissionReducesDeliveries: a permanent send omission
// suppresses the slot's link messages (self-delivery exempt) and the
// loss is accounted as FaultOmissions, not MessagesDropped.
func TestSendOmissionReducesDeliveries(t *testing.T) {
	base, err := run(baseConfig(4, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(4, 4, 0)
	cfg.Faults = &inject.Schedule{Omissions: []inject.Omission{{Slot: 1, Send: true}}}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FaultOmissions == 0 {
		t.Fatal("send omission suppressed nothing")
	}
	if res.Stats.MessagesDropped != 0 {
		t.Fatalf("fault losses leaked into MessagesDropped (%d)", res.Stats.MessagesDropped)
	}
	perRound := base.Stats.MessagesDelivered / base.Rounds
	faultPerRound := (res.Stats.MessagesDelivered + res.Stats.FaultOmissions) / res.Rounds
	if perRound != faultPerRound {
		t.Fatalf("delivered+suppressed per round = %d, fault-free %d", faultPerRound, perRound)
	}
}

// TestMessageBudgetStops: MaxSends caps cumulative stamped sends and
// reports a structured stop reason instead of running to MaxRounds.
func TestMessageBudgetStops(t *testing.T) {
	cfg := baseConfig(4, 4, 0)
	cfg.NewProcess = func(int) engine.Process { return &echoProc{decideAt: 9} }
	cfg.MaxSends = 5 // one round stamps 4 broadcasts
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != engine.StopMessageBudget {
		t.Fatalf("Stopped = %q, want %q", res.Stopped, engine.StopMessageBudget)
	}
	if res.Rounds >= cfg.MaxRounds {
		t.Fatalf("budgeted run still took %d rounds", res.Rounds)
	}
	if res.AllDecided {
		t.Fatal("AllDecided despite stopping before the decision round")
	}
}

// TestInvariantsCleanRuns: paranoid mode passes over fault-free and
// faulted executions on both state representations — the checks
// themselves must not perturb results.
func TestInvariantsCleanRuns(t *testing.T) {
	faults := []*inject.Schedule{
		nil,
		{Crashes: []inject.Crash{{Slot: 0, Round: 2, Recover: 2}}},
		{
			Omissions:  []inject.Omission{{Slot: 1, Send: true, From: 1, Until: 3}},
			Duplicates: []inject.Duplicate{{FromSlot: 0, ToSlot: 3, Round: 2}},
			Replays:    []inject.Replay{{FromSlot: 3, SourceRound: 1, Round: 3, ToSlot: 0}},
		},
	}
	for _, f := range faults {
		for _, run := range []func(engine.Config) (*engine.Result, error){run, runCounting} {
			plain := baseConfig(4, 2, 0)
			plain.Faults = f
			want, err := run(plain)
			if err != nil {
				t.Fatal(err)
			}
			paranoid := plain
			paranoid.Invariants = true
			got, err := run(paranoid)
			if err != nil {
				t.Fatalf("invariants tripped (faults=%v): %v", f, err)
			}
			if got.Stats != want.Stats || got.Rounds != want.Rounds {
				t.Fatalf("paranoid mode perturbed the run (faults=%v)", f)
			}
		}
	}
}

// TestInvariantErrorType: engine.InvariantError formats round, check and detail
// and is recoverable with errors.As through Run's error path.
func TestInvariantErrorType(t *testing.T) {
	ie := &engine.InvariantError{Round: 3, Check: "arena-bounds", Detail: "raw index out of range"}
	var as *engine.InvariantError
	if !errors.As(error(ie), &as) {
		t.Fatal("errors.As failed on engine.InvariantError")
	}
	msg := ie.Error()
	for _, want := range []string{"3", "arena-bounds", "raw index out of range"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("engine.InvariantError text %q missing %q", msg, want)
		}
	}
}
