package engine_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
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

func TestNewConflictingOptions(t *testing.T) {
	cases := []struct {
		name  string
		extra []engine.Option
	}{
		{"rounds", []engine.Option{engine.WithRounds(7)}}, // base already sets 3
		{"gst", []engine.Option{engine.WithGST(1), engine.WithGST(5)}},
		{"budget", []engine.Option{
			engine.WithBudget(10),
			engine.WithBudget(20),
		}},
		{"state-rep", []engine.Option{
			engine.WithStateRep(engine.Concrete()),
			engine.WithStateRep(engine.Counting()),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := engine.New(append(baseOptions(), tc.extra...)...)
			if !errors.Is(err, engine.ErrConflictingOptions) {
				t.Fatalf("want ErrConflictingOptions, got %v", err)
			}
		})
	}
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

// TestNewPerSlotOptionsCompareByValue pins the two n-sized knobs:
// repeating WithAssignment or WithInputs with an equal slice (the same
// one or a copy) is idempotent, a different one is a conflict that
// names the lengths and the first differing slot — and nothing else of
// the slice.
func TestNewPerSlotOptionsCompareByValue(t *testing.T) {
	a := hom.Assignment{1, 2, 3, 4} // what baseOptions already set
	in := []hom.Value{0, 1, 0, 1}
	same := append(baseOptions(),
		engine.WithAssignment(a), engine.WithAssignment(a.Clone()),
		engine.WithInputs(in...), engine.WithInputs(append([]hom.Value(nil), in...)...),
	)
	if _, err := engine.New(same...); err != nil {
		t.Fatalf("repeating a per-slot option with an equal slice must not conflict: %v", err)
	}
	for _, tc := range []struct {
		name string
		opt  engine.Option
		want []string
	}{
		{"assignment", engine.WithAssignment(hom.Assignment{1, 2, 4, 3}),
			[]string{"Assignment", "lengths 4 and 4", "slot 2 set to both 3 and 4"}},
		{"inputs", engine.WithInputs(0, 1, 0, 0),
			[]string{"Inputs", "lengths 4 and 4", "slot 3 set to both 1 and 0"}},
		{"shorter", engine.WithInputs(0, 1, 0),
			[]string{"Inputs", "lengths 4 and 3", "ends at slot 3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := engine.New(append(baseOptions(), tc.opt)...)
			if !errors.Is(err, engine.ErrConflictingOptions) {
				t.Fatalf("want ErrConflictingOptions, got %v", err)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("conflict message %q does not mention %q", err, want)
				}
			}
		})
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

// TestNewOptionsLayerDoesNotScaleWithN: folding and validating the
// options of an n=1e5 execution takes a handful of allocations — the
// options closures, the settings and the identifier-coverage bitset —
// not one per slot. The round cap is left out so New stops after the
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

func TestNewNilOptionValues(t *testing.T) {
	cases := []struct {
		name string
		opt  engine.Option
	}{
		{"nil-option", nil},
		{"faults", engine.WithFaults(nil)},
		{"adversary", engine.WithAdversary(nil)},
		{"visibility", engine.WithVisibility(nil)},
		{"timemodel", engine.WithTimeModel(nil)},
		{"state-rep", engine.WithStateRep(nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := engine.New(append(baseOptions(), tc.opt)...)
			if !errors.Is(err, engine.ErrNilOption) {
				t.Fatalf("want ErrNilOption, got %v", err)
			}
		})
	}
}

func TestNewBadOptionValues(t *testing.T) {
	cases := []struct {
		name string
		opt  engine.Option
	}{
		{"negative-sends", engine.WithBudget(-1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := engine.New(append(baseOptions(), tc.opt)...)
			if !errors.Is(err, engine.ErrBadOption) {
				t.Fatalf("want ErrBadOption, got %v", err)
			}
		})
	}
}

// TestNewReportsAllOptionErrors pins the errors.Join behaviour: every
// option-level problem surfaces in one error instead of first-wins.
func TestNewReportsAllOptionErrors(t *testing.T) {
	_, err := engine.New(append(baseOptions(),
		engine.WithBudget(-1),
		engine.WithFaults(nil),
		engine.WithGST(1),
		engine.WithGST(9),
	)...)
	for _, want := range []error{engine.ErrBadOption, engine.ErrNilOption, engine.ErrConflictingOptions} {
		if !errors.Is(err, want) {
			t.Errorf("joined error missing %v (got %v)", want, err)
		}
	}
}

// TestNewConfigValidationOrder pins that configuration-level validation
// runs after option-level checks, in New's documented order, with the
// exported sentinels.
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
	res, err := engine.Run(append(baseOptions(),
		engine.WithBudget(1),
		engine.WithInvariants(),
	)...)
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
