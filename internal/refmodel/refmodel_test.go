package refmodel_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
	"homonyms/internal/refmodel"
)

// tally broadcasts its input every round and, at round decideAt,
// decides the number of message copies that round's inbox held.
type tally struct {
	input    hom.Value
	decideAt int
	count    int
	decided  bool
}

func (p *tally) Init(ctx engine.Context) { p.input = ctx.Input }

func (p *tally) Prepare(int) []msg.Send {
	return []msg.Send{msg.Broadcast(msg.Raw(fmt.Sprint(p.input)))}
}

func (p *tally) Receive(round int, in *msg.Inbox) {
	if round == p.decideAt {
		p.count, p.decided = in.TotalCount(), true
	}
}

func (p *tally) Decision() (hom.Value, bool) { return hom.Value(p.count), p.decided }

// script is an adversary that corrupts the given slots, sends the given
// targeted messages in round 1, and drops the given (round, from, to)
// links.
type script struct {
	corrupt []int
	sends   []msg.TargetedSend
	drops   map[[3]int]bool
}

func (a script) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int { return a.corrupt }

func (a script) Sends(round, _ int, _ *engine.View) []msg.TargetedSend {
	if round != 1 {
		return nil
	}
	return a.sends
}

func (a script) Drop(round, from, to int) bool { return a.drops[[3]int{round, from, to}] }

// deliveries renders a Result's traffic send-major, one line per round,
// sender and message: "round from>to,to,... key", a recipient listed
// once per copy it was delivered.
func deliveries(r *engine.Result) []string {
	var out []string
	for i, d := range r.Traffic {
		if p := r.Traffic[max(i-1, 0)]; i > 0 && p.Round == d.Round && p.FromSlot == d.FromSlot && p.Msg.Key() == d.Msg.Key() {
			last := out[len(out)-1]
			at := strings.Index(last, " id=")
			out[len(out)-1] = fmt.Sprintf("%s,%d%s", last[:at], d.ToSlot, last[at:])
			continue
		}
		out = append(out, fmt.Sprintf("%d %d>%d %s", d.Round, d.FromSlot, d.ToSlot, d.Msg.Key()))
	}
	return out
}

func check(t *testing.T, res *engine.Result, stats engine.Stats, traffic []string) {
	t.Helper()
	if res.Stats != stats {
		t.Errorf("Stats = %+v\nwant    %+v", res.Stats, stats)
	}
	if got := deliveries(res); !slices.Equal(got, traffic) {
		t.Errorf("deliveries:\n got  %q\n want %q", got, traffic)
	}
}

// TestRestrictedByzantineOverSends: n=3 with identifiers 1, 2, 3, one
// round, synchronous. Slots 0 and 1 are correct and broadcast their
// inputs "0" and "1"; slot 2 is a restricted Byzantine process (§2: at
// most one message per recipient per round) and tries to send "x" and
// then "y" to slot 0, "x" to slot 1, and two messages the model has no
// room for (a slot that does not exist, a message with no payload).
//
// Send-major: each correct broadcast reaches all three slots, itself
// included; the adversary's first message to slot 0 goes through, the
// second breaks the budget and is discarded, its message to slot 1 goes
// through, and the last two are not sends at all. Every delivery carries
// its sender's own identifier. Eight messages are sent and delivered,
// each with a 5-byte payload key ("raw|0", "raw|x", ...): 40 bytes. Each
// correct slot's inbox holds one message from each identifier: 3.
func TestRestrictedByzantineOverSends(t *testing.T) {
	res, err := refmodel.Run(engine.Config{
		Params:     hom.Params{N: 3, L: 3, T: 1, Synchrony: hom.Synchronous, RestrictedByzantine: true},
		Assignment: hom.Assignment{1, 2, 3},
		Inputs:     []hom.Value{0, 1, 0},
		NewProcess: func(int) engine.Process { return &tally{decideAt: 1} },
		Adversary: script{corrupt: []int{2}, sends: []msg.TargetedSend{
			{ToSlot: 0, Body: msg.Raw("x")},
			{ToSlot: 0, Body: msg.Raw("y")},
			{ToSlot: 1, Body: msg.Raw("x")},
			{ToSlot: 3, Body: msg.Raw("z")},
			{ToSlot: 1},
		}},
		MaxRounds:     1,
		RecordTraffic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	check(t, res, engine.Stats{MessagesSent: 8, MessagesDelivered: 8, PayloadBytes: 40, RestrictedViolations: 1}, []string{
		"1 0>0,1,2 id=1|raw|0",
		"1 1>0,1,2 id=2|raw|1",
		"1 2>0,1 id=3|raw|x", // two sends, one recipient each
	})
	if want := []hom.Value{3, 3, hom.NoValue}; !slices.Equal(res.Decisions, want) || res.Rounds != 1 || !res.AllDecided {
		t.Errorf("Decisions %v in %d rounds (all decided: %v), want %v in 1", res.Decisions, res.Rounds, res.AllDecided, want)
	}
}

// TestPartialSynchronyDropAndDuplicate: n=4 over identifiers 1, 2, 1, 2
// (two homonym pairs), partially synchronous with GST 2, numerate, two
// rounds; every slot broadcasts its input each round. Before GST the
// adversary drops the one link 1->0 in round 1 (§2: only a finite number
// of messages are lost, all before GST); in round 2 a duplication fault
// delivers slot 3's message to slot 2 twice.
//
// Round 1: 16 messages sent, 15 delivered (1->0 dropped). Round 2: 16
// sent, 17 delivered (3->2 twice, adjacent). 32 messages sent, 32
// delivered, 1 dropped, 32 x 5 payload-key bytes = 160. In round 2 a
// numerate inbox counts copies: two "0" from identifier 1 (slots 0 and
// 2 are homonyms with equal messages), two "1" from identifier 2 — 4 —
// and slot 2 holds the duplicate too, 5. The duplication names slot 3
// as a faulty sender.
func TestPartialSynchronyDropAndDuplicate(t *testing.T) {
	res, err := refmodel.Run(engine.Config{
		Params:        hom.Params{N: 4, L: 2, T: 1, Synchrony: hom.PartiallySynchronous, Numerate: true},
		Assignment:    hom.Assignment{1, 2, 1, 2},
		Inputs:        []hom.Value{0, 1, 0, 1},
		NewProcess:    func(int) engine.Process { return &tally{decideAt: 2} },
		Adversary:     script{drops: map[[3]int]bool{{1, 1, 0}: true}},
		GST:           2,
		MaxRounds:     2,
		Faults:        &inject.Schedule{Duplicates: []inject.Duplicate{{FromSlot: 3, ToSlot: 2, Round: 2}}},
		RecordTraffic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	check(t, res, engine.Stats{MessagesSent: 32, MessagesDelivered: 32, MessagesDropped: 1, PayloadBytes: 160}, []string{
		"1 0>0,1,2,3 id=1|raw|0",
		"1 1>1,2,3 id=2|raw|1", // 1->0 dropped
		"1 2>0,1,2,3 id=1|raw|0",
		"1 3>0,1,2,3 id=2|raw|1",
		"2 0>0,1,2,3 id=1|raw|0",
		"2 1>0,1,2,3 id=2|raw|1",
		"2 2>0,1,2,3 id=1|raw|0",
		"2 3>0,1,2,2,3 id=2|raw|1", // 3->2 duplicated
	})
	if want := []hom.Value{4, 4, 5, 4}; !slices.Equal(res.Decisions, want) || !slices.Equal(res.Faulted, []int{3}) {
		t.Errorf("Decisions %v, Faulted %v; want %v and [3]", res.Decisions, res.Faulted, want)
	}
}
