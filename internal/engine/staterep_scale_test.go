package engine_test

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// scaleFlooder is the scale-smoke workload: an identifier-keyed
// broadcaster with the Cloner/StateHasher extensions, so each of the l
// identifier groups collapses into a single class. It decides after
// round 3, exercising decision recording across a million slots;
// Config.ExtraRounds keeps the engine broadcasting through the full round
// budget afterwards (a run otherwise stops once all correct slots
// decided).
type scaleFlooder struct {
	id    hom.Identifier
	ready bool
}

func (f *scaleFlooder) Init(ctx engine.Context) { f.id = ctx.ID }
func (f *scaleFlooder) Prepare(round int) []msg.Send {
	return []msg.Send{msg.Broadcast(msg.Raw(fmt.Sprintf("flood|%d|%d", f.id, round)))}
}
func (f *scaleFlooder) Receive(round int, _ *msg.Inbox) {
	if round >= 3 {
		f.ready = true
	}
}
func (f *scaleFlooder) Decision() (hom.Value, bool) { return hom.Value(f.id), f.ready }
func (f *scaleFlooder) CloneProcess() engine.Process {
	cp := *f
	return &cp
}
func (f *scaleFlooder) StateFingerprint() msg.StateHash {
	return msg.NewStateHash().Int(int(f.id)).Bool(f.ready)
}

// scaleMerger is scaleFlooder's merging twin: it also holds its input,
// and forgets it on receiving round 1. Under inputs that alternate
// within every identifier group the 2l (identifier, input) classes
// Start creates re-converge after round 1 and merge into l.
type scaleMerger struct {
	scaleFlooder
	in hom.Value
}

func (f *scaleMerger) Init(ctx engine.Context) {
	f.scaleFlooder.Init(ctx)
	f.in = ctx.Input
}
func (f *scaleMerger) Receive(round int, in *msg.Inbox) {
	f.scaleFlooder.Receive(round, in)
	f.in = 0
}
func (f *scaleMerger) CloneProcess() engine.Process {
	cp := *f
	return &cp
}
func (f *scaleMerger) StateFingerprint() msg.StateHash {
	return f.scaleFlooder.StateFingerprint().Int(int(f.in))
}

// runScaleFlood assembles and runs the scale flooder (or, merging, its
// merging twin) at n slots under l identifiers for eight weighted
// rounds, checks the outcome against the closed forms, and
// returns what New and Run allocated between them (the assignment and
// input vectors are the caller's, built before the measurement starts).
func runScaleFlood(t *testing.T, n int, merging bool) (mallocs, bytes uint64) {
	t.Helper()
	const l, rounds = 8, 8
	inputs := make([]hom.Value, n)
	factory := func(int) engine.Process { return &scaleFlooder{} }
	if merging {
		for s := range inputs {
			inputs[s] = hom.Value(s / l % 2)
		}
		factory = func(int) engine.Process { return &scaleMerger{} }
	}
	assignment := hom.RoundRobinAssignment(n, l)
	rep := engine.Counting()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := engine.Run(engine.Config{
		Params:      hom.Params{N: n, L: l, T: 0, Synchrony: hom.Synchronous},
		Assignment:  assignment,
		Inputs:      inputs,
		NewProcess:  factory,
		MaxRounds:   rounds,
		ExtraRounds: rounds - 3,
	}, engine.WithStateRep(rep))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != rounds {
		t.Fatalf("n=%d: ran %d rounds, want the full budget of %d", n, res.Rounds, rounds)
	}
	if got := rep.(interface{ ClassCount() int }).ClassCount(); got != l {
		t.Fatalf("n=%d: run ended with %d classes, want %d", n, got, l)
	}
	if !res.AllDecided {
		t.Fatalf("n=%d: run did not decide everywhere", n)
	}
	for s := 0; s < n; s += n / 16 {
		want := hom.Value(s%l + 1)
		if res.Decisions[s] != want || res.DecidedAt[s] != 3 {
			t.Fatalf("n=%d: slot %d decided %d in round %d, want its identifier %d in round 3",
				n, s, res.Decisions[s], res.DecidedAt[s], want)
		}
	}
	if wantSent := n * n * rounds; res.Stats.MessagesSent != wantSent {
		t.Fatalf("n=%d: MessagesSent = %d, want the analytic n*n*rounds = %d", n, res.Stats.MessagesSent, wantSent)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestCountingFastPathCostIsPerClass pins what a clean execution costs,
// every round weighted, with classes fixed and with 2l classes merging
// into l: the
// number of allocations is a function of the classes and the rounds, not
// of n (ten times the slots, the same count to within slice growth), and
// the bytes stay under 24 per slot — the Result's decisions and decision
// rounds (16 B), the class index (4 B) and the corrupted-slot mask
// (1 B), with room for nothing n-sized beside them. A per-slot table
// creeping back into the engine or the Router, a merge writing slots,
// the Result copying the configured vectors, or an option rendering its
// slice, fails here in the ordinary tier. (The count comparison is
// skipped under the race detector, which makes sync.Pool drop items at
// random; the byte budget is not.)
func TestCountingFastPathCostIsPerClass(t *testing.T) {
	// A collection empties the interner, arena and inbox pools, and a
	// larger n collects more often: hold the collector off so the two
	// counts compare the code, not the pools.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range []string{"flood", "merging"} {
		merging := name == "merging"
		t.Run(name, func(t *testing.T) {
			// Mallocs is process-wide and the pools are per-P: on a loaded
			// host a migrated goroutine misses a warm pool, or a runtime
			// goroutine allocates, inside the window. Such noise only adds,
			// so each n is measured as the minimum of three runs.
			measure := func(n int) (mallocs, bytes uint64) {
				mallocs, bytes = runScaleFlood(t, n, merging)
				for i := 0; i < 2; i++ {
					m, b := runScaleFlood(t, n, merging)
					mallocs, bytes = min(mallocs, m), min(bytes, b)
				}
				return mallocs, bytes
			}
			runScaleFlood(t, 1_000, merging) // warm the pools
			small, smallBytes := measure(10_000)
			large, largeBytes := measure(100_000)
			if diff := int64(large) - int64(small); !raceEnabled && (diff < -16 || diff > 16) {
				t.Errorf("allocations grew with n: %d at n=1e4, %d at n=1e5 (want equal within 16)", small, large)
			}
			// The budget holds for the marginal slot, and for the whole run at
			// n=1e5, where the fixed cost — with the pools the race detector
			// empties at random, some 50 kB — is half a byte per slot.
			if marginal := float64(largeBytes-smallBytes) / 90_000; marginal > 24 || largeBytes > 24*100_000 {
				t.Errorf("New+Run allocated %d bytes at n=1e4, %d at n=1e5: %.1f per marginal slot, %d per slot at n=1e5 (budget 24)",
					smallBytes, largeBytes, marginal, largeBytes/100_000)
			}
		})
	}
}

// runByzantineFlood runs the scale flooder for eight rounds with one
// equivocating slot (the first holder of identifier 1), which takes every
// round through the Router's slot stage, and returns the bytes New and
// Run allocated between them.
func runByzantineFlood(t *testing.T, n int, rep engine.StateRep) uint64 {
	t.Helper()
	const l, rounds = 8, 8
	inputs := make([]hom.Value, n)
	assignment := hom.RoundRobinAssignment(n, l)
	adv := &adversary.Composite{Selector: adversary.OnePerIdentifier{1}, Behavior: adversary.Equivocate{Seed: 1}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := engine.Run(engine.Config{
		Params:      hom.Params{N: n, L: l, T: 1, Synchrony: hom.Synchronous},
		Assignment:  assignment,
		Inputs:      inputs,
		NewProcess:  func(int) engine.Process { return &scaleFlooder{} },
		Adversary:   adv,
		MaxRounds:   rounds,
		ExtraRounds: rounds - 3,
	}, engine.WithStateRep(rep))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != rounds || !res.AllDecided {
		t.Fatalf("n=%d: ran %d rounds (all decided: %v), want the full budget of %d", n, res.Rounds, res.AllDecided, rounds)
	}
	// n-1 broadcasts to n recipients and one targeted message per slot.
	if wantSent := n * n * rounds; res.Stats.MessagesSent != wantSent {
		t.Fatalf("n=%d: MessagesSent = %d, want the analytic n*n*rounds = %d", n, res.Stats.MessagesSent, wantSent)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestByzantineRoundCostIsPerGroup pins what one Byzantine slot costs
// once every round goes through the Router: the n² messages of a round
// are accounted for — MessagesSent is the analytic count — but a
// broadcast is routed as one row entry per identifier group and only
// the equivocator's targeted pairs per recipient, so four times the
// slots allocate about four times the bytes (at most six), under
// Counting and under its Concrete twin alike. Per-recipient
// broadcast lists (8·n² bytes of them per execution) grow sixteenfold.
func TestByzantineRoundCostIsPerGroup(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // as above: compare the code, not the pools
	for _, rep := range []struct {
		name string
		make func() engine.StateRep
	}{{"counting", engine.Counting}, {"concrete", engine.Concrete}} {
		t.Run(rep.name, func(t *testing.T) {
			runByzantineFlood(t, 256, rep.make()) // warm the pools
			small := runByzantineFlood(t, 1024, rep.make())
			large := runByzantineFlood(t, 4096, rep.make())
			if large > 6*small {
				t.Errorf("bytes grew faster than the slots: %d at n=1024, %d at n=4096 (%.1fx, want at most 6x)",
					small, large, float64(large)/float64(small))
			}
		})
	}
}

// TestCountingMillionScaleSmoke is the PR-10 headline smoke: one million
// homonymous processes under eight identifiers run eight broadcast
// rounds through engine.Counting at the cost of eight equivalence
// classes (sixteen merging into eight, for the merging twin) plus the
// per-slot decisions, decision rounds and class index — some 21 MB
// allocated and a few tens of milliseconds. It asserts that budget
// (TotalAlloc <= 24 MB, Mallocs <= 20 k), so the CI scale job fails on
// a regression instead of merely finishing. Gated behind HOMONYMS_SCALE
// only because the concrete-cost engines could never run this cell and
// the race detector multiplies even this footprint;
// TestCountingFastPathCostIsPerClass runs the same workloads at n=1e5 in
// the ordinary tier.
func TestCountingMillionScaleSmoke(t *testing.T) {
	if os.Getenv("HOMONYMS_SCALE") == "" {
		t.Skip("set HOMONYMS_SCALE=1 to run the n=1e6 counting smoke")
	}
	for _, name := range []string{"flood", "merging"} {
		merging := name == "merging"
		t.Run(name, func(t *testing.T) {
			mallocs, bytes := runScaleFlood(t, 1_000_000, merging)
			if bytes > 24<<20 {
				t.Errorf("n=1e6 run allocated %d MB, budget 24 MB", bytes>>20)
			}
			if mallocs > 20_000 {
				t.Errorf("n=1e6 run made %d allocations, budget 20 000", mallocs)
			}
		})
	}
}
