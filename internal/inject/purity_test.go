package inject

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// propertySchedule exercises every fault kind at once, with the
// probabilistic omission and delay paths included, so the purity sweep
// below touches every query's hash-derived branch.
func propertySchedule() *Schedule {
	return &Schedule{
		Crashes: []Crash{
			{Slot: 0, Round: 4, Recover: 2},
			{Slot: 3, Round: 6},
		},
		Omissions: []Omission{
			{Slot: 1, Send: true, From: 2, Until: 5, Prob: 0.4, Seed: 7},
			{Slot: 2, Receive: true, From: 1, Until: 3},
		},
		Duplicates: []Duplicate{{FromSlot: 1, ToSlot: 2, Round: 3}},
		Replays: []Replay{
			{FromSlot: 2, SourceRound: 1, Round: 4, ToSlot: 0},
			{FromSlot: 1, SourceRound: 2, Round: 4, ToSlot: 3},
		},
		Delays: []Delay{
			{FromSlot: 0, ToSlot: 2, From: 1, Until: 4, By: 2, Prob: 0.5, Seed: 1},
			{FromSlot: 0, ToSlot: 3, From: 2, Until: 3, By: 1},
			{FromSlot: 1, ToSlot: 3, From: 1, Until: 2}, // By 0: until stabilization
		},
		Reorders: []Reorder{{FromSlot: 2, ToSlot: 1, Round: 2}},
		Stalls:   []Stall{{Slot: 2, Round: 5, Rounds: 2}},
	}
}

// query is one injector probe; answer renders its result as a string so
// probes with different result shapes compare uniformly.
type query struct {
	name            string
	round, from, to int
}

func (q query) answer(in *Injector) string {
	switch q.name {
	case "Down":
		return fmt.Sprint(in.Down(q.from, q.round))
	case "Suppress":
		return fmt.Sprint(in.Suppress(q.round, q.from, q.to))
	case "Dup":
		return fmt.Sprint(in.Dup(q.round, q.from, q.to))
	case "NeedRetain":
		return fmt.Sprint(in.NeedRetain(q.from, q.round))
	case "ReplaysInto":
		return fmt.Sprint(in.ReplaysInto(q.round))
	case "DelayBy":
		by, held := in.DelayBy(q.round, q.from, q.to)
		return fmt.Sprint(by, held)
	case "Stalled":
		return fmt.Sprint(in.Stalled(q.from, q.round))
	case "Live":
		return fmt.Sprint(in.Live(KindLoss, q.round), in.Live(KindHold, q.round),
			in.Live(KindStall, q.round), in.Live(KindReplay, q.round))
	}
	return "?"
}

// queryGrid enumerates every query over every (round, from, to) in the
// sweep range, in deterministic order.
func queryGrid(n, maxRound int) []query {
	names := []string{"Down", "Suppress", "Dup", "NeedRetain",
		"ReplaysInto", "DelayBy", "Stalled", "Live"}
	var out []query
	for _, name := range names {
		for round := 1; round <= maxRound; round++ {
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					out = append(out, query{name, round, from, to})
				}
			}
		}
	}
	return out
}

// TestInjectorQueryPurity: every injector query is a pure function of
// its arguments. The sweep asks every question three ways — in grid
// order on one injector, in shuffled order on a second injector
// compiled from the same schedule, and concurrently from several
// goroutines on a third — and all answers must agree. This is the
// contract that keeps the state representations, the reference
// interpreter and any worker count byte-identical under injected
// faults.
func TestInjectorQueryPurity(t *testing.T) {
	const n, maxRound = 4, 8
	s := propertySchedule()
	grid := queryGrid(n, maxRound)

	base, err := Compile(s, n)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(grid))
	for i, q := range grid {
		want[i] = q.answer(base)
	}

	// Shuffled order on a fresh injector: answers must not depend on
	// query history.
	shuffled, err := Compile(s, n)
	if err != nil {
		t.Fatal(err)
	}
	order := rand.New(rand.NewSource(1)).Perm(len(grid))
	for _, i := range order {
		if got := grid[i].answer(shuffled); got != want[i] {
			t.Fatalf("%s(%d,%d,%d) shuffled = %s, want %s",
				grid[i].name, grid[i].round, grid[i].from, grid[i].to, got, want[i])
		}
	}

	// Concurrent workers on one shared injector: queries are read-only
	// and race-free, and the partition of the grid is irrelevant.
	for _, workers := range []int{2, 5} {
		shared, err := Compile(s, n)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(grid))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(grid); i += workers {
					got[i] = grid[i].answer(shared)
				}
			}(w)
		}
		wg.Wait()
		for i := range grid {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: %s(%d,%d,%d) = %s, want %s", workers,
					grid[i].name, grid[i].round, grid[i].from, grid[i].to, got[i], want[i])
			}
		}
	}

	// The probabilistic paths must actually split: the 0.4 omission and
	// the 0.5 delay should lose/hold some deliveries and pass others
	// inside their windows.
	lost, kept, held, passed := 0, 0, 0, 0
	for round := 2; round <= 5; round++ {
		for to := 0; to < n; to++ {
			if to == 1 {
				continue
			}
			if base.Suppress(round, 1, to) {
				lost++
			} else if !base.Down(to, round) {
				kept++
			}
		}
	}
	for round := 1; round <= 4; round++ {
		if _, h := base.DelayBy(round, 0, 2); h {
			held++
		} else {
			passed++
		}
	}
	if lost == 0 || kept == 0 {
		t.Fatalf("probabilistic omission lost %d kept %d — want both nonzero", lost, kept)
	}
	if held == 0 || passed == 0 {
		t.Fatalf("probabilistic delay held %d passed %d — want both nonzero", held, passed)
	}
}

// TestDelayByWindowPaths pins DelayBy's resolution rules: the window
// gates the send round, until-stabilization (By 0) dominates any
// bounded delay, otherwise the largest By wins, and a reorder is a
// one-round hold that never lowers a bigger delay.
func TestDelayByWindowPaths(t *testing.T) {
	in, err := Compile(&Schedule{
		Delays: []Delay{
			{FromSlot: 0, ToSlot: 1, From: 2, Until: 3, By: 2},
			{FromSlot: 0, ToSlot: 1, From: 3, Until: 3, By: 5},
			{FromSlot: 2, ToSlot: 3, From: 1, Until: 2}, // until stabilization
			{FromSlot: 2, ToSlot: 3, From: 1, Until: 4, By: 3},
		},
		Reorders: []Reorder{
			{FromSlot: 4, ToSlot: 0, Round: 2},
			{FromSlot: 0, ToSlot: 1, Round: 3},
		},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, held := in.DelayBy(1, 0, 1); held {
		t.Fatal("delay fired before its window")
	}
	if by, held := in.DelayBy(2, 0, 1); !held || by != 2 {
		t.Fatalf("round 2: by=%d held=%v, want 2 true", by, held)
	}
	// Round 3: both bounded delays and the reorder overlap; largest By wins.
	if by, held := in.DelayBy(3, 0, 1); !held || by != 5 {
		t.Fatalf("round 3: by=%d held=%v, want 5 true", by, held)
	}
	if _, held := in.DelayBy(4, 0, 1); held {
		t.Fatal("delay fired after its window")
	}
	// Until-stabilization dominates the overlapping By 3 delay.
	if by, held := in.DelayBy(2, 2, 3); !held || by != 0 {
		t.Fatalf("stabilization hold: by=%d held=%v, want 0 true", by, held)
	}
	// Outside the stabilization window the bounded delay resurfaces.
	if by, held := in.DelayBy(3, 2, 3); !held || by != 3 {
		t.Fatalf("post-stabilization round: by=%d held=%v, want 3 true", by, held)
	}
	// A bare reorder is a one-round hold.
	if by, held := in.DelayBy(2, 4, 0); !held || by != 1 {
		t.Fatalf("reorder: by=%d held=%v, want 1 true", by, held)
	}
	if _, held := in.DelayBy(1, 4, 0); held {
		t.Fatal("reorder fired in the wrong round")
	}
}

// TestStalledWindows pins the stall query's window arithmetic and the
// timing flags that route schedules to a timing-capable model.
func TestStalledWindows(t *testing.T) {
	s := &Schedule{Stalls: []Stall{{Slot: 1, Round: 3, Rounds: 2}}}
	in, err := Compile(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 6; round++ {
		want := round == 3 || round == 4
		if got := in.Stalled(1, round); got != want {
			t.Errorf("round %d: Stalled = %v, want %v", round, got, want)
		}
		if in.Stalled(0, round) {
			t.Errorf("round %d: unstalled slot reported stalled", round)
		}
	}
	if !in.HasTiming() || !s.HasTiming() {
		t.Fatal("stall schedule must report timing faults")
	}
	if !in.Live(KindStall, 4) || in.Live(KindStall, 5) {
		t.Fatal("stall window wrong: want live through the last stalled round 4 only")
	}
	if ok, _ := s.Simulable(true); ok {
		t.Fatal("timing faults simulable under restricted Byzantine")
	}
	if ok, _ := s.Simulable(false); !ok {
		t.Fatal("timing faults must be simulable in the unrestricted model")
	}
}
