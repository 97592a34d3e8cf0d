package engine_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
)

// echoProc is the minimal correct process: broadcast the input once,
// decide it immediately.
type echoProc struct {
	input   hom.Value
	decided bool
}

func (p *echoProc) Init(ctx engine.Context) { p.input = ctx.Input }

func (p *echoProc) Prepare(round int) []msg.Send {
	if round != 1 {
		return nil
	}
	return []msg.Send{msg.Broadcast(valuePayload{p.input})}
}

func (p *echoProc) Receive(round int, in *msg.Inbox) { p.decided = true }

func (p *echoProc) Decision() (hom.Value, bool) { return p.input, p.decided }

type valuePayload struct{ v hom.Value }

func (p valuePayload) BuildKey(kb *msg.KeyBuilder) { kb.Reset("echo").Value(p.v) }
func (p valuePayload) Key() string                 { return msg.ScratchKey(p) }

// baseOptions is a valid minimal execution; the validation tests perturb
// it one knob at a time.
func baseOptions() []engine.Option {
	return []engine.Option{
		engine.WithParams(hom.Params{N: 4, L: 4, T: 0, Synchrony: hom.Synchronous}),
		engine.WithAssignment(hom.RoundRobinAssignment(4, 4)),
		engine.WithInputs(0, 1, 0, 1),
		engine.WithProcess(func(int) engine.Process { return &echoProc{} }),
		engine.WithRounds(3),
	}
}

func TestNewValidExecution(t *testing.T) {
	res, err := engine.Run(baseOptions()...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllDecided {
		t.Fatalf("expected all processes decided, got %+v", res.Decisions)
	}
}

// baseConfig is baseOptions as one Config.
func baseConfig() engine.Config {
	return engine.Config{
		Params:     hom.Params{N: 4, L: 4, T: 0, Synchrony: hom.Synchronous},
		Assignment: hom.RoundRobinAssignment(4, 4),
		Inputs:     []hom.Value{0, 1, 0, 1},
		NewProcess: func(int) engine.Process { return &echoProc{} },
		MaxRounds:  3,
	}
}

// mustRun runs opts and fails the test on an error.
func mustRun(t *testing.T, opts ...engine.Option) *engine.Result {
	t.Helper()
	res, err := engine.Run(opts...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestConfigIsAnOption pins the one execution record: New(cfg) runs
// exactly what the matching With* list runs, an option after the Config
// overrides its field, and a Config after an option replaces the whole
// record, the state representation included.
func TestConfigIsAnOption(t *testing.T) {
	if got, want := mustRun(t, baseConfig()), mustRun(t, baseOptions()...); !reflect.DeepEqual(got, want) {
		t.Fatalf("New(cfg) and New(With*...) differ:\n cfg:  %+v\n opts: %+v", got, want)
	}
	if res := mustRun(t, baseConfig(), engine.WithGST(5)); res.GST != 5 {
		t.Errorf("WithGST(5) after the Config: GST %d, want 5", res.GST)
	}
	probe := &engine.InternProbe{StateRep: engine.Concrete()}
	if res := mustRun(t, engine.WithGST(5), engine.WithStateRep(probe), baseConfig()); res.GST != 1 || probe.Keys != nil {
		t.Errorf("a Config after WithGST and WithStateRep kept them: GST %d, probe ran %v", res.GST, probe.Keys != nil)
	}
}

// TestNewConflictingOptions pins that options never conflict: New
// applies them in order, so of two values for one field the later wins.
func TestNewConflictingOptions(t *testing.T) {
	t.Run("rounds", func(t *testing.T) { // base already sets 3
		cfg := baseConfig()
		cfg.ExtraRounds = 10
		if res := mustRun(t, cfg, engine.WithRounds(7)); res.Rounds != 7 {
			t.Fatalf("ran %d rounds, want the later cap of 7", res.Rounds)
		}
	})
	t.Run("gst", func(t *testing.T) {
		if res := mustRun(t, append(baseOptions(), engine.WithGST(1), engine.WithGST(5))...); res.GST != 5 {
			t.Fatalf("GST %d, want the later 5", res.GST)
		}
	})
	t.Run("budget", func(t *testing.T) {
		budget := func(maxSends int) engine.Config {
			cfg := baseConfig()
			cfg.MaxSends = maxSends
			return cfg
		}
		if res := mustRun(t, budget(0), budget(1)); res.Stopped != engine.StopMessageBudget {
			t.Fatalf("stopped %q, want the later budget of 1 to stop the run", res.Stopped)
		}
		if res := mustRun(t, budget(1), budget(0)); res.Stopped != "" {
			t.Fatalf("stopped %q, want the later unlimited budget", res.Stopped)
		}
	})
	t.Run("state-rep", func(t *testing.T) {
		earlier := &engine.InternProbe{StateRep: engine.Concrete()}
		later := &engine.InternProbe{StateRep: engine.Counting()}
		mustRun(t, append(baseOptions(), engine.WithStateRep(earlier), engine.WithStateRep(later))...)
		if earlier.Keys != nil || later.Keys == nil {
			t.Fatalf("earlier rep ran %v, later rep ran %v: want only the later", earlier.Keys != nil, later.Keys != nil)
		}
	})
}

func TestNewRepeatedOptionSameValueIsIdempotent(t *testing.T) {
	opts := append(baseOptions(),
		engine.WithTimeModel(engine.Lockstep{}),
		engine.WithTimeModel(engine.Lockstep{}),
		engine.WithGST(1),
		engine.WithGST(1),
	)
	if _, err := engine.New(opts...); err != nil {
		t.Fatalf("repeating an option with the same value must not conflict: %v", err)
	}
}

// scribbler corrupts no slot but overwrites the vectors Corrupt is
// handed.
type scribbler struct{}

func (scribbler) Corrupt(_ hom.Params, a hom.Assignment, in []hom.Value) []int {
	a[0], in[0] = 9, 9
	return nil
}
func (scribbler) Sends(int, int, *engine.View) []msg.TargetedSend { return nil }
func (scribbler) Drop(int, int, int) bool                         { return false }

// TestResultSharesConfiguredVectors pins the sharing contract of
// Config.Assignment and Config.Inputs: the Result reports the slices the
// execution was configured with, not copies, while Adversary.Corrupt is
// still handed copies of its own.
func TestResultSharesConfiguredVectors(t *testing.T) {
	a := hom.RoundRobinAssignment(4, 4)
	inputs := []hom.Value{0, 1, 0, 1}
	res, err := engine.Run(
		engine.WithParams(hom.Params{N: 4, L: 4, T: 0, Synchrony: hom.Synchronous}),
		engine.WithAssignment(a),
		engine.WithInputs(inputs...),
		engine.WithProcess(func(int) engine.Process { return &echoProc{} }),
		engine.WithAdversary(scribbler{}),
		engine.WithRounds(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if &res.Inputs[0] != &inputs[0] || &res.Assignment[0] != &a[0] {
		t.Error("Result.Inputs and Result.Assignment are copies, want the configured slices")
	}
	if a[0] != 1 || inputs[0] != 0 {
		t.Errorf("Adversary.Corrupt wrote through to the configured vectors: assignment %v, inputs %v", a, inputs)
	}
}

// corruptSlots corrupts a fixed set of slots and stays silent.
type corruptSlots []int

func (c corruptSlots) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int { return c }
func (corruptSlots) Sends(int, int, *engine.View) []msg.TargetedSend         { return nil }
func (corruptSlots) Drop(int, int, int) bool                                 { return false }

// TestResultCorrectSlotsMatchNaiveScan holds IsCorrupted, IsFaulted,
// CorrectSlots and CorrectRun to a per-slot scan of what the execution
// was given: corrupted slots, and fault culprits that were not also
// corrupted (slot 4 is both, and counts as corrupted only).
func TestResultCorrectSlotsMatchNaiveScan(t *testing.T) {
	const n = 10
	bad := map[int]bool{1: true, 4: true, 9: true}
	faulted := map[int]bool{2: true, 3: true, 6: true}
	res := mustRun(t,
		engine.WithParams(hom.Params{N: n, L: 5, T: 3, Synchrony: hom.Synchronous}),
		engine.WithAssignment(hom.RoundRobinAssignment(n, 5)),
		engine.WithInputs(make([]hom.Value, n)...),
		engine.WithProcess(func(int) engine.Process { return &echoProc{} }),
		engine.WithAdversary(corruptSlots{9, 4, 1}),
		engine.WithFaults(&inject.Schedule{
			Crashes:   []inject.Crash{{Slot: 3, Round: 1}, {Slot: 4, Round: 1}},
			Omissions: []inject.Omission{{Slot: 2, From: 1, Until: 2, Send: true}, {Slot: 6, From: 1, Until: 1, Receive: true}},
		}),
		engine.WithRounds(3),
	)
	var correct []int
	for s := range n {
		if res.IsCorrupted(s) != bad[s] || res.IsFaulted(s) != faulted[s] {
			t.Errorf("slot %d: IsCorrupted %v, IsFaulted %v; want %v, %v", s, res.IsCorrupted(s), res.IsFaulted(s), bad[s], faulted[s])
		}
		if !bad[s] && !faulted[s] {
			correct = append(correct, s)
		}
	}
	if got := res.CorrectSlots(); !reflect.DeepEqual(got, correct) {
		t.Errorf("CorrectSlots = %v, want %v", got, correct)
	}
	isCorrect := func(s int) bool { return s >= 0 && s < n && !bad[s] && !faulted[s] }
	for from := -1; from <= n+1; from++ {
		lo := min(max(from, 0), n)
		for lo < n && !isCorrect(lo) {
			lo++
		}
		hi := lo
		for isCorrect(hi) {
			hi++
		}
		if gotLo, gotHi := res.CorrectRun(from); gotLo != lo || gotHi != hi {
			t.Errorf("CorrectRun(%d) = [%d, %d), want [%d, %d)", from, gotLo, gotHi, lo, hi)
		}
	}
}

// TestNewOptionsLayerDoesNotScaleWithN: applying and validating the
// options of an n=1e5 execution takes a handful of allocations — the
// option setters and the identifier-coverage bitset — not one per slot. The round cap is left out so New stops after the
// options layer and configuration validation, before the engine is
// assembled.
func TestNewOptionsLayerDoesNotScaleWithN(t *testing.T) {
	const n, l = 100_000, 8
	a := hom.RoundRobinAssignment(n, l)
	in := make([]hom.Value, n)
	allocs := testing.AllocsPerRun(5, func() {
		_, err := engine.New(
			engine.WithParams(hom.Params{N: n, L: l, T: 1, Synchrony: hom.Synchronous}),
			engine.WithAssignment(a), engine.WithAssignment(a),
			engine.WithInputs(in...), engine.WithInputs(in...),
			engine.WithProcess(func(int) engine.Process { return &echoProc{} }),
		)
		if !errors.Is(err, engine.ErrNoRoundCap) {
			t.Fatalf("want ErrNoRoundCap from the validated options, got %v", err)
		}
	})
	if allocs >= 64 {
		t.Errorf("the options layer allocated %v times at n=%d, want fewer than 64", allocs, n)
	}
}

// TestNewNilOptionValues pins that a nil value means what the Config
// field's zero value means: set after a non-nil one, it gives the run
// that never set the field. A nil Visibility is complete connectivity.
func TestNewNilOptionValues(t *testing.T) {
	sched := &inject.Schedule{Crashes: []inject.Crash{{Slot: 1, Round: 1}}}
	connected := baseConfig()
	connected.Visibility = func(int, int) bool { return true }
	cases := []struct {
		name string
		opts []engine.Option
	}{
		{"nil-option", []engine.Option{nil}},
		{"faults", []engine.Option{engine.WithFaults(sched), engine.WithFaults(nil)}},
		{"adversary", []engine.Option{engine.WithAdversary(scribbler{}), engine.WithAdversary(nil)}},
		{"visibility", []engine.Option{connected}},
		{"timemodel", []engine.Option{engine.WithTimeModel(engine.EventuallySynchronous{Bound: 2}), engine.WithTimeModel(nil)}},
		{"state-rep", []engine.Option{engine.WithStateRep(engine.Concrete()), engine.WithStateRep(nil)}},
	}
	want := mustRun(t, baseOptions()...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := mustRun(t, append(baseOptions(), tc.opts...)...); !reflect.DeepEqual(got, want) {
				t.Fatalf("nil value differs from the zero Config:\n got:  %+v\n want: %+v", got, want)
			}
		})
	}
}

// TestNewBadOptionValues pins that a negative value means what the
// Config field's zero value means: a negative budget is unlimited.
func TestNewBadOptionValues(t *testing.T) {
	t.Run("negative-sends", func(t *testing.T) {
		negative := baseConfig()
		negative.MaxSends = -1
		if got, want := mustRun(t, negative), mustRun(t, baseConfig()); !reflect.DeepEqual(got, want) {
			t.Fatalf("negative value differs from the zero Config:\n got:  %+v\n want: %+v", got, want)
		}
	})
}

// TestNewConfigValidationOrder pins that validation runs in New's
// documented order, with the exported sentinels.
func TestNewConfigValidationOrder(t *testing.T) {
	t.Run("params-first", func(t *testing.T) {
		_, err := engine.New(engine.WithParams(hom.Params{N: 0, L: 0, T: 0}))
		if err == nil || errors.Is(err, engine.ErrNilProcessFactory) {
			t.Fatalf("invalid params must be reported before the missing factory, got %v", err)
		}
	})
	t.Run("inputs", func(t *testing.T) {
		opts := baseOptions()
		opts[2] = engine.WithInputs(0, 1) // wrong arity for N=4
		_, err := engine.New(opts...)
		if !errors.Is(err, hom.ErrInputLength) {
			t.Fatalf("want hom.ErrInputLength, got %v", err)
		}
	})
	t.Run("factory", func(t *testing.T) {
		opts := baseOptions()
		opts[3] = engine.WithProcess(nil)
		_, err := engine.New(opts...)
		if !errors.Is(err, engine.ErrNilProcessFactory) {
			t.Fatalf("want ErrNilProcessFactory, got %v", err)
		}
	})
	t.Run("rounds", func(t *testing.T) {
		_, err := engine.New(baseOptions()[:4]...) // drop WithRounds
		if !errors.Is(err, engine.ErrNoRoundCap) {
			t.Fatalf("want ErrNoRoundCap, got %v", err)
		}
	})
}

// TestBudgetInvariantInterplay pins the budget/invariant check order: a
// send-budget exhaustion stops the execution cleanly (StopMessageBudget)
// with invariants enabled, rather than tripping an invariant failure or
// an error.
func TestBudgetInvariantInterplay(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxSends, cfg.Invariants = 1, true
	res, err := engine.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stopped != engine.StopMessageBudget {
		t.Fatalf("want StopMessageBudget, got %q (rounds=%d)", res.Stopped, res.Rounds)
	}
	if res.Rounds != 1 {
		t.Fatalf("budget of 1 send must stop after round 1, ran %d", res.Rounds)
	}
}

// TestSecondRunIsTypedError pins hostile reuse: the first Run releases
// the execution's state, so a second one on the same Engine must refuse
// with ErrEngineReused under every state representation, not
// dereference what was recycled — also while other executions draw the
// recycled state from the same pools.
func TestSecondRunIsTypedError(t *testing.T) {
	for _, tc := range []struct {
		name string
		rep  func() engine.StateRep
		runs int // executions at once, one goroutine each
	}{
		{"concrete", engine.Concrete, 1},
		{"concurrent", engine.Counting, 4},
		{"counting", engine.Counting, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wg sync.WaitGroup
			for range tc.runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e, err := engine.New(append(baseOptions(), engine.WithStateRep(tc.rep()))...)
					if err != nil {
						t.Errorf("New: %v", err)
						return
					}
					if _, err := e.Run(); err != nil {
						t.Errorf("first Run: %v", err)
						return
					}
					if res, err := e.Run(); !errors.Is(err, engine.ErrEngineReused) || res != nil {
						t.Errorf("second Run = (%v, %v), want (nil, ErrEngineReused)", res, err)
					}
				}()
			}
			wg.Wait()
		})
	}
}
