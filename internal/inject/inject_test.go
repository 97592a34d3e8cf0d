package inject

import (
	"errors"
	"testing"
)

// TestNilInjectorIsInert: every query on a nil injector answers "no
// fault" — engines compile nil schedules to nil injectors and keep the
// fault-free fast path.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Live(KindLoss, 1) || in.Live(KindHold, 1) || in.Live(KindStall, 1) || in.Live(KindReplay, 1) || in.Down(0, 1) || in.Suppress(1, 0, 1) || in.Dup(1, 0, 1) || in.NeedRetain(0, 1) {
		t.Fatal("nil injector reported a fault")
	}
	if got := in.ReplaysInto(1); got != nil {
		t.Fatalf("nil injector replays: %v", got)
	}
	if got := in.Culprits(); got != nil {
		t.Fatalf("nil injector culprits: %v", got)
	}
}

// TestCompileEmpty: nil and empty schedules compile to a nil injector.
func TestCompileEmpty(t *testing.T) {
	for _, s := range []*Schedule{nil, {}} {
		in, err := Compile(s, 4)
		if err != nil || in != nil {
			t.Fatalf("Compile(%v) = %v, %v; want nil, nil", s, in, err)
		}
	}
}

// TestCompileValidation: out-of-range slots, rounds, probabilities and
// replay orderings are rejected with the typed sentinel errors.
func TestCompileValidation(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		want error
	}{
		{"crash slot", Schedule{Crashes: []Crash{{Slot: 4, Round: 1}}}, ErrSlotRange},
		{"crash slot negative", Schedule{Crashes: []Crash{{Slot: -1, Round: 1}}}, ErrSlotRange},
		{"crash round", Schedule{Crashes: []Crash{{Slot: 0, Round: 0}}}, ErrRoundRange},
		{"crash recover", Schedule{Crashes: []Crash{{Slot: 0, Round: 1, Recover: -1}}}, ErrRoundRange},
		{"omission slot", Schedule{Omissions: []Omission{{Slot: 9, Send: true}}}, ErrSlotRange},
		{"omission prob", Schedule{Omissions: []Omission{{Slot: 0, Send: true, Prob: 1.0}}}, ErrProbRange},
		{"duplicate slot", Schedule{Duplicates: []Duplicate{{FromSlot: 0, ToSlot: 4, Round: 1}}}, ErrSlotRange},
		{"duplicate round", Schedule{Duplicates: []Duplicate{{FromSlot: 0, ToSlot: 1, Round: 0}}}, ErrRoundRange},
		{"replay slot", Schedule{Replays: []Replay{{FromSlot: 5, SourceRound: 1, Round: 2, ToSlot: 0}}}, ErrSlotRange},
		{"replay source", Schedule{Replays: []Replay{{FromSlot: 0, SourceRound: 0, Round: 2, ToSlot: 1}}}, ErrRoundRange},
		{"replay order", Schedule{Replays: []Replay{{FromSlot: 0, SourceRound: 3, Round: 3, ToSlot: 1}}}, ErrReplayOrder},
	}
	for _, tc := range cases {
		if _, err := Compile(&tc.s, 4); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestCrashWindows: crash-stop is down forever from its round on;
// crash-recovery is down for exactly Recover rounds.
func TestCrashWindows(t *testing.T) {
	in, err := Compile(&Schedule{Crashes: []Crash{
		{Slot: 0, Round: 3},             // crash-stop
		{Slot: 1, Round: 2, Recover: 2}, // down in rounds 2, 3
	}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 6; round++ {
		wantStop := round >= 3
		wantRec := round == 2 || round == 3
		if got := in.Down(0, round); got != wantStop {
			t.Errorf("round %d: crash-stop Down = %v, want %v", round, got, wantStop)
		}
		if got := in.Down(1, round); got != wantRec {
			t.Errorf("round %d: crash-recovery Down = %v, want %v", round, got, wantRec)
		}
		if !in.Live(KindLoss, round) {
			t.Errorf("round %d: crash-stop schedule must keep the loss window open forever", round)
		}
	}
	// A down recipient loses every delivery, including self-delivery.
	if !in.Suppress(3, 2, 0) || !in.Suppress(3, 0, 0) {
		t.Error("deliveries to a down slot must be suppressed")
	}
	if in.Suppress(1, 2, 0) {
		t.Error("delivery before the crash round suppressed")
	}
}

// TestActiveBound: a schedule of only bounded faults closes each kind's
// window after the last round that kind touches, re-enabling the
// engines' fast path kind by kind.
func TestActiveBound(t *testing.T) {
	in, err := Compile(&Schedule{
		Crashes:    []Crash{{Slot: 0, Round: 2, Recover: 3}}, // last down round 4
		Duplicates: []Duplicate{{FromSlot: 1, ToSlot: 2, Round: 6}},
		Replays:    []Replay{{FromSlot: 1, SourceRound: 2, Round: 5, ToSlot: 3}},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 7; round++ {
		if got, want := in.Live(KindLoss, round), round <= 6; got != want {
			t.Errorf("round %d: loss window live = %v, want %v", round, got, want)
		}
		if got, want := in.Live(KindReplay, round), round <= 5; got != want {
			t.Errorf("round %d: replay window live = %v, want %v", round, got, want)
		}
		if in.Live(KindHold, round) || in.Live(KindStall, round) {
			t.Errorf("round %d: a kind the schedule does not contain is live", round)
		}
	}
}

// TestOmissionPurity: the probabilistic omission decision is a pure
// function of (round, from, to) — two injectors from the same schedule
// agree on every link — and respects direction and window.
func TestOmissionPurity(t *testing.T) {
	s := &Schedule{Omissions: []Omission{
		{Slot: 1, Send: true, From: 2, Until: 4, Prob: 0.5, Seed: 99},
	}}
	a, err := Compile(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Compile(s, 5)
	lost, kept := 0, 0
	for round := 1; round <= 6; round++ {
		for from := 0; from < 5; from++ {
			for to := 0; to < 5; to++ {
				got := a.Suppress(round, from, to)
				if got != b.Suppress(round, from, to) {
					t.Fatalf("omission decision not pure at (%d,%d,%d)", round, from, to)
				}
				if got {
					lost++
					if from != 1 {
						t.Fatalf("send omission on slot 1 lost a message from %d", from)
					}
					if round < 2 || round > 4 {
						t.Fatalf("omission fired outside its window at round %d", round)
					}
					if from == to {
						t.Fatal("self-delivery lost to an omission")
					}
				} else {
					kept++
				}
			}
		}
	}
	if lost == 0 || kept == 0 {
		t.Fatalf("prob 0.5 omission lost %d and kept %d — want both nonzero", lost, kept)
	}
}

// TestDeterministicOmissionLosesAll: Prob 0 means every link message in
// the window is lost (receive side here).
func TestDeterministicOmissionLosesAll(t *testing.T) {
	in, err := Compile(&Schedule{Omissions: []Omission{{Slot: 2, Receive: true}}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		for from := 0; from < 4; from++ {
			want := from != 2 // self-delivery exempt
			if got := in.Suppress(round, from, 2); got != want {
				t.Errorf("round %d from %d: Suppress = %v, want %v", round, from, got, want)
			}
		}
		if in.Suppress(round, 2, 3) {
			t.Error("receive omission suppressed an outgoing message")
		}
	}
}

// TestCulpritsSortedDistinct: culprits are the distinct fault-source
// slots in ascending order.
func TestCulpritsSortedDistinct(t *testing.T) {
	s := &Schedule{
		Crashes:    []Crash{{Slot: 3, Round: 1}, {Slot: 1, Round: 2, Recover: 1}},
		Omissions:  []Omission{{Slot: 3, Send: true}},
		Duplicates: []Duplicate{{FromSlot: 0, ToSlot: 2, Round: 1}},
		Replays:    []Replay{{FromSlot: 1, SourceRound: 1, Round: 2, ToSlot: 0}},
	}
	got := s.Culprits()
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("culprits = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("culprits = %v, want %v", got, want)
		}
	}
}

// TestDupAndReplayQueries: Dup matches exactly its (round, from, to),
// NeedRetain marks the source round, ReplaysInto preserves schedule
// order.
func TestDupAndReplayQueries(t *testing.T) {
	in, err := Compile(&Schedule{
		Duplicates: []Duplicate{{FromSlot: 1, ToSlot: 2, Round: 3}},
		Replays: []Replay{
			{FromSlot: 0, SourceRound: 2, Round: 5, ToSlot: 3},
			{FromSlot: 2, SourceRound: 1, Round: 5, ToSlot: 0},
			{FromSlot: 0, SourceRound: 3, Round: 6, ToSlot: 1},
		},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Dup(3, 1, 2) || in.Dup(3, 2, 1) || in.Dup(2, 1, 2) {
		t.Error("Dup matched the wrong delivery")
	}
	if !in.NeedRetain(0, 2) || !in.NeedRetain(2, 1) || !in.NeedRetain(0, 3) || in.NeedRetain(0, 1) || in.NeedRetain(3, 2) {
		t.Error("NeedRetain wrong")
	}
	got := in.ReplaysInto(5)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("ReplaysInto(5) = %v, want [0 1]", got)
	}
	if got := in.ReplaysInto(4); got != nil {
		t.Fatalf("ReplaysInto(4) = %v, want none", got)
	}
}

// TestSimulable: crash/omission schedules are Byzantine-simulable in
// both models; duplication and replay only in the unrestricted one.
func TestSimulable(t *testing.T) {
	crash := &Schedule{Crashes: []Crash{{Slot: 0, Round: 1}}}
	if ok, _ := crash.Simulable(true); !ok {
		t.Error("crash schedule must be simulable under restricted Byzantine")
	}
	dup := &Schedule{Duplicates: []Duplicate{{FromSlot: 0, ToSlot: 1, Round: 1}}}
	if ok, _ := dup.Simulable(false); !ok {
		t.Error("duplication must be simulable in the unrestricted model")
	}
	if ok, why := dup.Simulable(true); ok {
		t.Errorf("duplication simulable under restricted Byzantine (%s)", why)
	}
	replay := &Schedule{Replays: []Replay{{FromSlot: 0, SourceRound: 1, Round: 2, ToSlot: 1}}}
	if ok, _ := replay.Simulable(true); ok {
		t.Error("replay simulable under restricted Byzantine")
	}
}
