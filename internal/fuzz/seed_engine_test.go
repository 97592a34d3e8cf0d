package fuzz

import "testing"

// seedEngineExpect pins the engine-level execution shape of one
// committed regression seed — facts the fuzz Expect block does not
// carry. The fuzz classification pins WHAT a seed witnesses; these
// rows pin HOW the execution got there (round count, decision spread,
// drop/fault accounting), so an engine change that preserves the
// verdict but quietly changes the execution is still caught. The two
// eventually-synchronous seeds have their own richer pins in
// seed_timing_test.go.
type seedEngineExpect struct {
	name       string
	rounds     int
	allDecided bool
	stopped    string
	sent       int
	delivered  int
	dropped    int // adversarial drops
	omitted    int // injector suppressions (crashes, omissions)
	corrupted  []int
	faulted    []int
	decidedAt  []int // 0 = never decided
}

func seedEngineExpects() []seedEngineExpect {
	return []seedEngineExpect{
		{
			name:   "authbcast-unforgeability-l3t",
			rounds: 13, sent: 1866, delivered: 1866,
			corrupted: []int{0}, faulted: []int{},
			decidedAt: []int{0, 0, 0},
		},
		{
			name:   "numbcast-unforgeability-unrestricted",
			rounds: 13, sent: 910, delivered: 910,
			corrupted: []int{0, 1, 2}, faulted: []int{},
			decidedAt: []int{0, 0, 0, 0, 0, 0, 0},
		},
		{
			name:   "psynchom-agreement-partition-t0",
			rounds: 7, allDecided: true, sent: 76, delivered: 46, dropped: 30,
			corrupted: []int{}, faulted: []int{},
			decidedAt: []int{7, 7},
		},
		{
			name:   "psynchom-validity-crash-recovery-pregst",
			rounds: 16, allDecided: true, sent: 3100, delivered: 3066, omitted: 34,
			corrupted: []int{0}, faulted: []int{2},
			decidedAt: []int{0, 15, 16, 16},
		},
		{
			name:   "psyncnum-termination-crash-quorum",
			rounds: 65, sent: 520, delivered: 390, omitted: 130,
			corrupted: []int{0}, faulted: []int{1},
			decidedAt: []int{0, 0, 0, 0},
		},
		{
			name:   "psyncnum-termination-innumerate",
			rounds: 49, sent: 196, delivered: 196,
			corrupted: []int{}, faulted: []int{},
			decidedAt: []int{0, 0},
		},
		{
			name:   "synchom-termination-l2-t1",
			rounds: 11, sent: 20, delivered: 20,
			corrupted: []int{0}, faulted: []int{},
			decidedAt: []int{0, 0},
		},
		{
			name:   "synchom-validity-l3-t2",
			rounds: 11, allDecided: true, sent: 99, delivered: 99,
			corrupted: []int{0, 1}, faulted: []int{},
			decidedAt: []int{0, 0, 11},
		},
		{
			name:   "synchom-validity-send-omission",
			rounds: 8, allDecided: true, sent: 160, delivered: 136, omitted: 24,
			corrupted: []int{0}, faulted: []int{2},
			decidedAt: []int{0, 8, 8, 8},
		},
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSeedEngineStats replays each pre-timing regression seed straight
// through the engine and pins its execution shape.
func TestSeedEngineStats(t *testing.T) {
	for _, want := range seedEngineExpects() {
		t.Run(want.name, func(t *testing.T) {
			sf := loadTestdataSeed(t, want.name)
			if _, err := Replay(sf, Options{}); err != nil {
				t.Fatal(err)
			}
			res := runSeedEngine(t, sf)
			if res.Rounds != want.rounds {
				t.Errorf("rounds = %d, want %d", res.Rounds, want.rounds)
			}
			if res.AllDecided != want.allDecided {
				t.Errorf("allDecided = %v, want %v", res.AllDecided, want.allDecided)
			}
			if string(res.Stopped) != want.stopped {
				t.Errorf("stopped = %q, want %q", res.Stopped, want.stopped)
			}
			if res.Stats.MessagesSent != want.sent {
				t.Errorf("messagesSent = %d, want %d", res.Stats.MessagesSent, want.sent)
			}
			if res.Stats.MessagesDelivered != want.delivered {
				t.Errorf("messagesDelivered = %d, want %d", res.Stats.MessagesDelivered, want.delivered)
			}
			if res.Stats.MessagesDropped != want.dropped {
				t.Errorf("messagesDropped = %d, want %d", res.Stats.MessagesDropped, want.dropped)
			}
			if res.Stats.FaultOmissions != want.omitted {
				t.Errorf("faultOmissions = %d, want %d", res.Stats.FaultOmissions, want.omitted)
			}
			// These seeds predate the timing subsystem: any held delivery
			// or retransmission here means a timing fault leaked in.
			if res.Stats.TimingHolds != 0 || res.Stats.Retransmits != 0 {
				t.Errorf("timing stats nonzero: holds=%d retransmits=%d",
					res.Stats.TimingHolds, res.Stats.Retransmits)
			}
			if !intsEqual(res.Corrupted, want.corrupted) {
				t.Errorf("corrupted = %v, want %v", res.Corrupted, want.corrupted)
			}
			if !intsEqual(res.Faulted, want.faulted) {
				t.Errorf("faulted = %v, want %v", res.Faulted, want.faulted)
			}
			if !intsEqual(res.DecidedAt, want.decidedAt) {
				t.Errorf("decidedAt = %v, want %v", res.DecidedAt, want.decidedAt)
			}
		})
	}
}
