package engine_test

import (
	"errors"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
)

// gatherProc broadcasts its input once in round 1 and decides as soon as
// it has accumulated one message per slot — so a held delivery on any
// inbound link pushes its decision round to exactly the drain round,
// which is what the tests below pin.
type gatherProc struct {
	n       int
	input   hom.Value
	got     int
	decided bool
}

func (p *gatherProc) Init(ctx engine.Context) { p.input = ctx.Input }

func (p *gatherProc) Prepare(round int) []msg.Send {
	if round != 1 {
		return nil
	}
	return []msg.Send{msg.Broadcast(valuePayload{p.input})}
}

func (p *gatherProc) Receive(round int, in *msg.Inbox) {
	p.got += in.TotalCount()
	if p.got >= p.n {
		p.decided = true
	}
}

func (p *gatherProc) Decision() (hom.Value, bool) { return p.input, p.decided }

// gather is a fault-free partially-synchronous base execution, with the
// engine's paranoid self-checks on: four processes, one broadcast each,
// everyone decides in round 1.
func gather(gst, maxRounds int) engine.Config {
	return engine.Config{
		Params:     hom.Params{N: 4, L: 4, T: 0, Synchrony: hom.PartiallySynchronous},
		Assignment: hom.RoundRobinAssignment(4, 4),
		Inputs:     []hom.Value{0, 1, 0, 1},
		NewProcess: func(int) engine.Process { return &gatherProc{n: 4} },
		GST:        gst,
		MaxRounds:  maxRounds,
		Invariants: true,
	}
}

func TestTimingFaultsRequireTimingModel(t *testing.T) {
	sched := &inject.Schedule{
		Delays: []inject.Delay{{FromSlot: 0, ToSlot: 3, From: 1, Until: 1, By: 1}},
	}
	_, err := engine.New(gather(1, 5),
		engine.WithFaults(sched),
	)
	if !errors.Is(err, engine.ErrTimingFaults) {
		t.Fatalf("delay fault under Lockstep: want ErrTimingFaults, got %v", err)
	}
	_, err = engine.New(gather(1, 5),
		engine.WithFaults(sched),
		engine.WithTimeModel(engine.EventuallySynchronous{}),
	)
	if err != nil {
		t.Fatalf("delay fault under EventuallySynchronous must be accepted, got %v", err)
	}
}

func TestTimingPolicyValidation(t *testing.T) {
	for name, tm := range map[string]engine.TimeModel{
		"bound":       engine.EventuallySynchronous{Bound: -1},
		"timeout":     engine.EventuallySynchronous{Timeout: -2},
		"maxattempts": engine.EventuallySynchronous{MaxAttempts: -1},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := engine.New(gather(1, 5), engine.WithTimeModel(tm))
			if !errors.Is(err, engine.ErrTimingPolicy) {
				t.Fatalf("want ErrTimingPolicy, got %v", err)
			}
		})
	}
}

// TestDelayHeldUntilStabilization pins the pre-GST hold semantics: a
// round-1 delivery delayed with By == 0 stays in the pending queue until
// max(GST, send) + Bound and drains exactly there, pushing the
// recipient's decision to the drain round. With no timeout configured,
// retransmission never fires.
func TestDelayHeldUntilStabilization(t *testing.T) {
	res, err := engine.Run(gather(5, 10),
		engine.WithTimeModel(engine.EventuallySynchronous{}),
		engine.WithFaults(&inject.Schedule{
			Delays: []inject.Delay{{FromSlot: 0, ToSlot: 3, From: 1, Until: 1}},
		}),
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.DecidedAt[3]; got != 5 {
		t.Errorf("slot 3 must decide at GST=5 when its missing message drains there, decided at %d", got)
	}
	for s := 0; s < 3; s++ {
		if got := res.DecidedAt[s]; got != 1 {
			t.Errorf("slot %d is off the delayed link and must decide at round 1, decided at %d", s, got)
		}
	}
	if res.Stats.TimingHolds != 1 {
		t.Errorf("want exactly 1 timing hold, got %d", res.Stats.TimingHolds)
	}
	if res.Stats.Retransmits != 0 {
		t.Errorf("timeout disabled: want 0 retransmits, got %d", res.Stats.Retransmits)
	}
}

// TestRetransmitRecovery is the robustness half: the same delay schedule
// with a one-round timeout recovers as soon as the fault window closes —
// the round-2 retransmission is not held, so slot 3 decides at round 2
// instead of waiting for stabilization at round 5.
func TestRetransmitRecovery(t *testing.T) {
	res, err := engine.Run(gather(5, 10),
		engine.WithTimeModel(engine.EventuallySynchronous{Timeout: 1}),
		engine.WithFaults(&inject.Schedule{
			Delays: []inject.Delay{{FromSlot: 0, ToSlot: 3, From: 1, Until: 1}},
		}),
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.DecidedAt[3]; got != 2 {
		t.Errorf("retransmission at round 2 must recover the delivery: slot 3 decided at %d, want 2", got)
	}
	if res.Stats.Retransmits != 1 {
		t.Errorf("want exactly 1 retransmit, got %d", res.Stats.Retransmits)
	}
	if res.Stopped != "" {
		t.Errorf("unexpected stop: %q", res.Stopped)
	}
}

// TestRetransmitBackoffCap pins MaxAttempts: under a delay window that
// outlasts every retry, the timer disarms after the configured number of
// attempts instead of retransmitting forever.
func TestRetransmitBackoffCap(t *testing.T) {
	res, err := engine.Run(gather(20, 12),
		engine.WithTimeModel(engine.EventuallySynchronous{Timeout: 1, MaxAttempts: 2}),
		engine.WithFaults(&inject.Schedule{
			Delays: []inject.Delay{{FromSlot: 0, ToSlot: 3, From: 1}}, // open window, held to GST past the horizon
		}),
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stats.Retransmits != 2 {
		t.Errorf("want exactly MaxAttempts=2 retransmits, got %d", res.Stats.Retransmits)
	}
	if res.DecidedAt[3] != 0 {
		t.Errorf("slot 3's missing delivery never drains inside the horizon; it must not decide (decided at %d)", res.DecidedAt[3])
	}
}

// TestRetransmitBudgetStop pins the overload degradation: sustained
// delay plus an armed timeout retransmits until Config.MaxSends is hit,
// and the execution ends as a structured StopMessageBudget instead of a
// livelock. Round 1 stamps four sends (one arena entry per broadcast),
// so a budget of 5 is exhausted by the first retransmission.
func TestRetransmitBudgetStop(t *testing.T) {
	cfg := gather(20, 12)
	cfg.MaxSends = 5
	res, err := engine.Run(cfg,
		engine.WithTimeModel(engine.EventuallySynchronous{Timeout: 1}),
		engine.WithFaults(&inject.Schedule{
			Delays: []inject.Delay{{FromSlot: 0, ToSlot: 3, From: 1}},
		}),
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stopped != engine.StopMessageBudget {
		t.Fatalf("want StopMessageBudget, got %q (rounds=%d)", res.Stopped, res.Rounds)
	}
	if res.Stats.Retransmits < 1 {
		t.Errorf("the budget must be exhausted by a retransmission, got %d retransmits", res.Stats.Retransmits)
	}
}

// TestStallFreezesRoundClock pins the stall fault: a stalled slot takes
// no protocol steps during its window (its round clock is frozen), so a
// delivery due inside the window is pushed to the first round after it.
func TestStallFreezesRoundClock(t *testing.T) {
	res, err := engine.Run(gather(12, 10),
		engine.WithTimeModel(engine.EventuallySynchronous{}),
		engine.WithFaults(&inject.Schedule{
			// Slot 3's missing round-1 message is delayed By=3 (due round
			// 4); the pre-GST stall covering rounds 4..5 pushes the drain
			// to round 6.
			Delays: []inject.Delay{{FromSlot: 0, ToSlot: 3, From: 1, Until: 1, By: 3}},
			Stalls: []inject.Stall{{Slot: 3, Round: 4, Rounds: 2}},
		}),
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.DecidedAt[3]; got != 6 {
		t.Errorf("stall over the due round must push the drain to round 6, slot 3 decided at %d", got)
	}
}

// TestReorderOvertake pins the reorder fault: a reordered delivery
// arrives one round late, after the next round's fresh traffic.
func TestReorderOvertake(t *testing.T) {
	res, err := engine.Run(gather(1, 6),
		engine.WithTimeModel(engine.EventuallySynchronous{Bound: 1}),
		engine.WithFaults(&inject.Schedule{
			Reorders: []inject.Reorder{{FromSlot: 0, ToSlot: 3, Round: 1}},
		}),
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.DecidedAt[3]; got != 2 {
		t.Errorf("reordered round-1 delivery must land in round 2, slot 3 decided at %d", got)
	}
	if res.Stats.TimingHolds != 1 {
		t.Errorf("want exactly 1 timing hold, got %d", res.Stats.TimingHolds)
	}
}

// TestPostGSTBoundZeroIsInert pins the stabilization guarantee: after
// GST with Bound == 0 every timing fault is inert — the schedule may not
// delay anything, so the execution equals the fault-free one.
func TestPostGSTBoundZeroIsInert(t *testing.T) {
	res, err := engine.Run(gather(1, 6),
		engine.WithTimeModel(engine.EventuallySynchronous{Timeout: 2}),
		engine.WithFaults(&inject.Schedule{
			Delays: []inject.Delay{{FromSlot: 0, ToSlot: 3, From: 1}},
		}),
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllDecided {
		t.Fatalf("post-GST zero-bound faults must be inert, decisions: %+v", res.Decisions)
	}
	for s, r := range res.DecidedAt {
		if r != 1 {
			t.Errorf("slot %d decided at %d, want 1 (fault inert after GST)", s, r)
		}
	}
	if res.Stats.TimingHolds != 0 {
		t.Errorf("want 0 timing holds, got %d", res.Stats.TimingHolds)
	}
}
