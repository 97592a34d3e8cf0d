package inject

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The naive* functions answer every injector query by scanning the whole
// Schedule, the way the injector did before it was indexed by endpoint.
// They share only the fault types' own window predicates (down, active,
// loses, holds, covers) with the compiled form — never the index or the
// per-kind windows, which is what the property test below checks.

func naiveDown(s *Schedule, slot, round int) bool {
	for _, c := range s.Crashes {
		if c.Slot == slot && c.down(round) {
			return true
		}
	}
	return false
}

func naiveSuppress(s *Schedule, round, from, to int) bool {
	if naiveDown(s, to, round) {
		return true
	}
	for _, o := range s.Omissions {
		if o.loses(round, from, to) {
			return true
		}
	}
	return false
}

func naiveDup(s *Schedule, round, from, to int) bool {
	for _, d := range s.Duplicates {
		if d.Round == round && d.FromSlot == from && d.ToSlot == to {
			return true
		}
	}
	return false
}

func naiveNeedRetain(s *Schedule, slot, round int) bool {
	for _, r := range s.Replays {
		if r.FromSlot == slot && r.SourceRound == round {
			return true
		}
	}
	return false
}

func naiveReplaysInto(s *Schedule, round int) []int {
	var out []int
	for i, r := range s.Replays {
		if r.Round == round {
			out = append(out, i)
		}
	}
	return out
}

func naiveDelayBy(s *Schedule, round, from, to int) (by int, held bool) {
	for _, d := range s.Delays {
		if d.holds(round, from, to) {
			held = true
			if d.By <= 0 {
				return 0, true
			}
			by = max(by, d.By)
		}
	}
	for _, r := range s.Reorders {
		if r.Round == round && r.FromSlot == from && r.ToSlot == to && from != to {
			held = true
			by = max(by, 1)
		}
	}
	return by, held
}

func naiveStalled(s *Schedule, slot, round int) bool {
	for _, st := range s.Stalls {
		if st.Slot == slot && st.covers(round) {
			return true
		}
	}
	return false
}

// naiveLive reports whether some fault of the kind can still touch a
// round in [round, horizon]; horizon lies beyond every bounded field of
// the schedule, so a fault that touches it is an open window.
func naiveLive(s *Schedule, k Kind, round, horizon int) bool {
	for r := round; r <= horizon; r++ {
		switch k {
		case KindLoss:
			for _, c := range s.Crashes {
				if c.down(r) {
					return true
				}
			}
			for _, o := range s.Omissions {
				if o.active(r) {
					return true
				}
			}
			for _, d := range s.Duplicates {
				if d.Round == r {
					return true
				}
			}
		case KindHold:
			for _, d := range s.Delays {
				if d.active(r) {
					return true
				}
			}
			for _, ro := range s.Reorders {
				if ro.Round == r {
					return true
				}
			}
		case KindStall:
			for _, st := range s.Stalls {
				if st.covers(r) {
					return true
				}
			}
		case KindReplay:
			for _, rp := range s.Replays {
				if rp.Round == r {
					return true
				}
			}
		}
	}
	return false
}

// randomSchedule draws a schedule over n slots whose bounded rounds stay
// at or below maxRound: open windows (Until 0, crash-stop), held-until-
// stabilisation delays (By 0), reorders, stalls, probabilistic omissions
// and delays, and — because slots are drawn from a small range — several
// faults sharing a slot and a link. Any kind may be absent.
func randomSchedule(rng *rand.Rand, n, maxRound int) *Schedule {
	slot := func() int { return rng.Intn(n) }
	round := func() int { return 1 + rng.Intn(maxRound) }
	window := func() (from, until int) {
		from = rng.Intn(maxRound) // 0 means "from round 1"
		if rng.Intn(3) == 0 {
			return from, 0 // open
		}
		return from, max(from, 1) + rng.Intn(maxRound-max(from, 1)+1)
	}
	prob := func() float64 {
		if rng.Intn(2) == 0 {
			return 0
		}
		return 0.2 + 0.6*rng.Float64()
	}
	s := &Schedule{}
	for i := rng.Intn(3); i > 0; i-- {
		s.Crashes = append(s.Crashes, Crash{Slot: slot(), Round: round(), Recover: rng.Intn(3)})
	}
	for i := rng.Intn(4); i > 0; i-- {
		from, until := window()
		s.Omissions = append(s.Omissions, Omission{
			Slot: slot(), Send: rng.Intn(2) == 0, Receive: rng.Intn(2) == 0,
			From: from, Until: until, Prob: prob(), Seed: rng.Int63(),
		})
	}
	for i := rng.Intn(3); i > 0; i-- {
		s.Duplicates = append(s.Duplicates, Duplicate{FromSlot: slot(), ToSlot: slot(), Round: round()})
	}
	for i := rng.Intn(3); i > 0; i-- {
		src := round()
		s.Replays = append(s.Replays, Replay{FromSlot: slot(), ToSlot: slot(), SourceRound: src, Round: src + 1 + rng.Intn(3)})
	}
	for i := rng.Intn(5); i > 0; i-- {
		from, until := window()
		s.Delays = append(s.Delays, Delay{
			FromSlot: slot(), ToSlot: slot(), From: from, Until: until,
			By: rng.Intn(4), Prob: prob(), Seed: rng.Int63(),
		})
	}
	for i := rng.Intn(3); i > 0; i-- {
		s.Reorders = append(s.Reorders, Reorder{FromSlot: slot(), ToSlot: slot(), Round: round()})
	}
	for i := rng.Intn(3); i > 0; i-- {
		s.Stalls = append(s.Stalls, Stall{Slot: slot(), Round: round(), Rounds: 1 + rng.Intn(3)})
	}
	return s
}

// TestIndexedQueriesMatchNaiveScan: over generated schedules, every
// endpoint-indexed query and every per-kind window agrees with a scan
// of the whole Schedule for every (round, from, to) in a grid that
// extends past the last bounded round.
func TestIndexedQueriesMatchNaiveScan(t *testing.T) {
	const n, maxRound = 4, 6
	const grid = maxRound + 6    // past every bounded field (replay: maxRound+3, stall: maxRound+2)
	const horizon = maxRound + 8 // only open windows reach it
	for seed := int64(1); seed <= 300; seed++ {
		s := randomSchedule(rand.New(rand.NewSource(seed)), n, maxRound)
		in, err := Compile(s, n)
		if err != nil {
			t.Fatalf("seed %d: Compile(%+v): %v", seed, s, err)
		}
		for round := 1; round <= grid; round++ {
			for k := Kind(0); k < numKinds; k++ {
				if got, want := in.Live(k, round), naiveLive(s, k, round, horizon); got != want {
					t.Fatalf("seed %d: Live(%d, round %d) = %v, naive scan says %v\n%+v", seed, k, round, got, want, s)
				}
			}
			if got, want := in.ReplaysInto(round), naiveReplaysInto(s, round); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: ReplaysInto(%d) = %v, want %v", seed, round, got, want)
			}
			for from := 0; from < n; from++ {
				if got, want := in.Down(from, round), naiveDown(s, from, round); got != want {
					t.Fatalf("seed %d: Down(%d, %d) = %v, want %v", seed, from, round, got, want)
				}
				if got, want := in.Stalled(from, round), naiveStalled(s, from, round); got != want {
					t.Fatalf("seed %d: Stalled(%d, %d) = %v, want %v", seed, from, round, got, want)
				}
				if got, want := in.NeedRetain(from, round), naiveNeedRetain(s, from, round); got != want {
					t.Fatalf("seed %d: NeedRetain(%d, %d) = %v, want %v", seed, from, round, got, want)
				}
				for to := 0; to < n; to++ {
					if got, want := in.Suppress(round, from, to), naiveSuppress(s, round, from, to); got != want {
						t.Fatalf("seed %d: Suppress(%d, %d, %d) = %v, want %v\n%+v", seed, round, from, to, got, want, s)
					}
					if got, want := in.Dup(round, from, to), naiveDup(s, round, from, to); got != want {
						t.Fatalf("seed %d: Dup(%d, %d, %d) = %v, want %v", seed, round, from, to, got, want)
					}
					gotBy, gotHeld := in.DelayBy(round, from, to)
					wantBy, wantHeld := naiveDelayBy(s, round, from, to)
					if gotBy != wantBy || gotHeld != wantHeld {
						t.Fatalf("seed %d: DelayBy(%d, %d, %d) = (%d, %v), want (%d, %v)\n%+v",
							seed, round, from, to, gotBy, gotHeld, wantBy, wantHeld, s)
					}
				}
			}
		}
	}
}

// TestHeldUntilStabilisationClosesItsWindow pins the case that used to
// keep the whole injector active forever: a By == 0 delay's due round
// depends on GST, but the last round it can *start* a hold in does not,
// so its window — and every other kind's — closes on schedule.
func TestHeldUntilStabilisationClosesItsWindow(t *testing.T) {
	in, err := Compile(&Schedule{
		Delays:    []Delay{{FromSlot: 0, ToSlot: 1, From: 1, Until: 3}}, // By 0
		Omissions: []Omission{{Slot: 2, Send: true, From: 1, Until: 4}},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Live(KindHold, 3) || in.Live(KindHold, 4) {
		t.Error("hold window must close after the delay's last send round 3")
	}
	if !in.Live(KindLoss, 4) || in.Live(KindLoss, 5) {
		t.Error("loss window must close after the omission's last round 4")
	}
	if in.Live(KindStall, 1) || in.Live(KindReplay, 1) {
		t.Error("kinds the schedule does not contain must never be live")
	}
}

// TestLinkCoinGolden pins the one coin adversary.RandomDrops, Omission
// and Delay all flip. Committed fuzz seeds, the chaos-soak digest and the
// benchmark's op digests depend on these exact draws: a change here is a
// change to every recorded execution with a probabilistic link fault.
func TestLinkCoinGolden(t *testing.T) {
	for _, tc := range []struct {
		seed            int64
		round, from, to int
		want            float64
	}{
		{0, 1, 0, 1, 0.8165128897532232},
		{1, 1, 0, 1, 0.47050178839919654},
		{7, 3, 2, 5, 0.9578696551891703},
		{-9, 40, 15, 0, 0.25577492852187766},
		{1 << 40, 1000, 999_999, 123_456, 0.2721522547585483},
	} {
		got := LinkCoin(tc.seed, tc.round, tc.from, tc.to)
		if got != tc.want {
			t.Errorf("LinkCoin(%d, %d, %d, %d) = %v, want %v", tc.seed, tc.round, tc.from, tc.to, got, tc.want)
		}
	}
}

// TestLinkCoinMatchesMathRand holds the closed-form coin to its
// definition — the first Float64 of a math/rand source seeded with the
// same value — over the seed shapes the normalisation treats specially
// (negative, zero, multiples of 2³¹−1 and their neighbours, the int64
// extremes) and 10⁵ generated seeds, and checks the jump constants
// against the Lehmer recurrence they abbreviate.
func TestLinkCoinMatchesMathRand(t *testing.T) {
	pow := func(e int) int64 {
		r := int64(1)
		for i := 0; i < e; i++ {
			r = r * lehmerA % lehmerM
		}
		return r
	}
	if got := pow(21 + 3*333); got != lehmerJump333 {
		t.Errorf("lehmerJump333 = %d, recurrence gives %d", lehmerJump333, got)
	}
	if got := pow(21 + 3*606); got != lehmerJump606 {
		t.Errorf("lehmerJump606 = %d, recurrence gives %d", lehmerJump606, got)
	}
	check := func(seed int64) {
		t.Helper()
		if got, want := firstFloat64(seed), rand.New(rand.NewSource(seed)).Float64(); got != want {
			t.Fatalf("firstFloat64(%d) = %v, math/rand gives %v", seed, got, want)
		}
	}
	const m = lehmerM
	for _, seed := range []int64{
		0, 1, -1, 2, -2, m - 1, m, m + 1, -m, -m - 1, -m + 1, 2 * m, -2 * m, 3*m + 7,
		1<<31 - 2, 1 << 31, 1 << 32, -(1 << 32), 1 << 40, 89482311,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
		math.MaxInt64 / m * m, -(math.MaxInt64 / m * m),
	} {
		check(seed)
	}
	for k := int64(-1000); k <= 1000; k++ {
		check(k * m)
	}
	rng := rand.New(rand.NewSource(20260929))
	for i := 0; i < 100_000; i++ {
		seed := int64(rng.Uint64())
		if i%4 == 0 {
			seed %= 1 << 20 // the small seeds experiments actually use
		}
		check(seed)
	}
	// And through the public function, on the link shapes callers pass.
	for i := 0; i < 2000; i++ {
		seed, round, from, to := rng.Int63n(1<<20)-1<<19, 1+rng.Intn(200), rng.Intn(1<<20), rng.Intn(1<<20)
		h := int64(round)*1_000_003 + int64(from)*10_007 + int64(to)
		if got, want := LinkCoin(seed, round, from, to), rand.New(rand.NewSource(seed^h)).Float64(); got != want {
			t.Fatalf("LinkCoin(%d, %d, %d, %d) = %v, math/rand gives %v", seed, round, from, to, got, want)
		}
	}
}

// BenchmarkLinkCoin measures one coin; the closed form allocates nothing.
func BenchmarkLinkCoin(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += LinkCoin(42, i&63, i&15, (i>>4)&15)
	}
	_ = sink
}
