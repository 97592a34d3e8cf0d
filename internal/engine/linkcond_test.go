package engine_test

import (
	"fmt"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
)

// chatterProc puts several messages on every link in each of its first
// talk rounds — the shape that makes per-link resolution matter — and
// decides, once everything held has had time to drain, on the parity of
// what it was delivered, so a single mis-resolved link changes a
// decision as well as the statistics and the traffic record.
type chatterProc struct {
	talk, got int
	round     int
}

func (p *chatterProc) Init(engine.Context) {}

func (p *chatterProc) Prepare(round int) []msg.Send {
	if round > p.talk {
		return nil
	}
	return []msg.Send{
		msg.Broadcast(valuePayload{hom.Value(3 * round)}),
		msg.Broadcast(valuePayload{hom.Value(3*round + 1)}),
		msg.Broadcast(valuePayload{hom.Value(3*round + 2)}),
	}
}

func (p *chatterProc) Receive(round int, in *msg.Inbox) {
	p.got += in.TotalCount()
	p.round = round
}

func (p *chatterProc) Decision() (hom.Value, bool) {
	return hom.Value(p.got % 2), p.round >= p.talk+4
}

// spyDropper is a hash-pure pre-GST drop adversary (the shared LinkCoin,
// like adversary.RandomDrops) that implements engine.BatchDropper and
// records how the router consults it.
type spyDropper struct {
	seed    int64
	prob    float64
	batches map[[2]int]int // (round, recipient) -> DropBatch calls
	repeats []string       // a sender handed twice within one call
	lastAsk int            // latest round either form was asked about
	single  int            // per-message Drop calls
}

func (a *spyDropper) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int { return nil }

func (a *spyDropper) Sends(int, int, *engine.View) []msg.TargetedSend { return nil }

func (a *spyDropper) verdict(round, from, to int) bool {
	a.lastAsk = max(a.lastAsk, round)
	return inject.LinkCoin(a.seed, round, from, to) < a.prob
}

func (a *spyDropper) Drop(round, from, to int) bool {
	a.single++
	return a.verdict(round, from, to)
}

func (a *spyDropper) DropBatch(round, to int, froms []int32, drop []bool) {
	if a.batches == nil {
		a.batches = make(map[[2]int]int)
	}
	a.batches[[2]int{round, to}]++
	seen := make(map[int32]bool, len(froms))
	for i, from := range froms {
		if seen[from] {
			a.repeats = append(a.repeats, fmt.Sprintf("round %d recipient %d: sender %d handed twice", round, to, from))
		}
		seen[from] = true
		drop[i] = a.verdict(round, int(from), to)
	}
}

const (
	lcN, lcL, lcGST, lcTalk = 6, 3, 4, 5
)

// linkCondConfig is an execution in which every link-condition stage
// has work, differs between two links of one sender, and flips when a
// window closes mid-run:
//
//   - slot 0's links to 3 and 5 are delayed, its link to 4 is not; the
//     0->3 window closes after round 2 while slot 0 is still talking;
//   - the 0->5 delay holds round 1 until stabilisation (By 0), so the
//     round-2 timeout retransmission re-takes the link's conditions at a
//     round the window no longer covers and lands early;
//   - slot 1 send-omits with probability one half through round 3 (per
//     link coins), slot 2's link to 5 duplicates in round 2, slot 4 is
//     down in round 2 and its clock is stalled in round 3;
//   - the adversary drops three links in ten before GST.
func linkCondConfig(adv engine.Adversary) engine.Config {
	return engine.Config{
		Params:     hom.Params{N: lcN, L: lcL, T: 1, Synchrony: hom.PartiallySynchronous},
		Assignment: hom.RoundRobinAssignment(lcN, lcL),
		Inputs:     []hom.Value{0, 1, 0, 1, 0, 1},
		NewProcess: func(int) engine.Process { return &chatterProc{talk: lcTalk} },
		GST:        lcGST,
		MaxRounds:  lcTalk + 6,
		Adversary:  adv,
		Faults: &inject.Schedule{
			Crashes:    []inject.Crash{{Slot: 4, Round: 2, Recover: 1}},
			Omissions:  []inject.Omission{{Slot: 1, Send: true, From: 1, Until: 3, Prob: 0.5, Seed: 11}},
			Duplicates: []inject.Duplicate{{FromSlot: 2, ToSlot: 5, Round: 2}},
			Delays: []inject.Delay{
				{FromSlot: 0, ToSlot: 3, From: 1, Until: 2, By: 2},
				{FromSlot: 0, ToSlot: 5, From: 1, Until: 1},
			},
			Stalls: []inject.Stall{{Slot: 4, Round: 3, Rounds: 1}},
		},
		RecordTraffic: true,
		TimeModel:     engine.EventuallySynchronous{Bound: 1, Timeout: 1, MaxAttempts: 3},
	}
}

// TestLinkConditionsPerLinkMatchPerMessage holds the batched path —
// which resolves every link condition once per (round, from, to) — to
// the reference interpreter, which asks Drop and the injector for every
// message: same Result (decisions, traffic record, stop reason,
// statistics) on both state representations, with and without the
// paranoid re-masking.
func TestLinkConditionsPerLinkMatchPerMessage(t *testing.T) {
	for _, invariants := range []bool{false, true} {
		cfg := linkCondConfig(&spyDropper{seed: 5, prob: 0.3})
		cfg.Invariants = invariants
		ref := holdToRefmodel(t, cfg)
		st := ref.Stats
		if st.MessagesDropped == 0 || st.FaultOmissions == 0 || st.TimingHolds == 0 || st.Retransmits == 0 {
			t.Fatalf("the schedule must exercise drops, omissions, holds and retransmission: %+v", st)
		}
		if !ref.AllDecided {
			t.Fatalf("every slot must decide once the faults have drained: %+v", ref.DecidedAt)
		}
	}
}

// TestBatchDropperSeesEachLinkOnce pins how the batched router consults
// the adversary: one DropBatch per (round, recipient), each distinct
// sender handed once however many messages its link carries, never the
// per-message Drop, and nothing at or after GST.
func TestBatchDropperSeesEachLinkOnce(t *testing.T) {
	spy := &spyDropper{seed: 5, prob: 0.3}
	if _, err := engine.Run(linkCondConfig(spy)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, r := range spy.repeats {
		t.Error(r)
	}
	if spy.single != 0 {
		t.Errorf("batched routing made %d per-message Drop calls", spy.single)
	}
	if spy.lastAsk >= lcGST {
		t.Errorf("adversary consulted about round %d, at or after GST=%d", spy.lastAsk, lcGST)
	}
	for round := 1; round < lcGST; round++ {
		for to := 0; to < lcN; to++ {
			want := 1
			if round == 3 && to == 4 {
				// Stalled: its inbound traffic is held at route time, so
				// no batch reaches the mask.
				want = 0
			}
			if got := spy.batches[[2]int{round, to}]; got != want {
				t.Errorf("round %d recipient %d: %d DropBatch calls, want %d", round, to, got, want)
			}
		}
	}
}
