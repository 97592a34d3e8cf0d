// The round kernel's black-box suite, driven through hand-built Configs:
// model semantics, injected faults and budgets, and parity with the
// reference interpreter. This directory holds tests only, like its
// sibling "runtime", so that the suite's test IDs (import path and
// name) stay stable.
package engine_test

import (
	"errors"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// echoProc broadcasts its input every round and decides, after a fixed
// round, on the smallest value it has ever received (a toy protocol used
// only to exercise engine mechanics).
type echoProc struct {
	ctx       engine.Context
	decideAt  int
	seen      hom.ValueSet
	seenIDs   map[hom.Identifier]bool
	counts    map[string]int
	decided   bool
	decision  hom.Value
	inboxLens []int
}

type valPayload struct{ v hom.Value }

func (p valPayload) Key() string { return msg.NewKey("val").Value(p.v).String() }

func (e *echoProc) Init(ctx engine.Context) {
	e.ctx = ctx
	e.seen = hom.NewValueSet()
	e.seenIDs = make(map[hom.Identifier]bool)
	e.counts = make(map[string]int)
	if e.decideAt == 0 {
		e.decideAt = 2
	}
}

func (e *echoProc) Prepare(int) []msg.Send {
	return []msg.Send{msg.Broadcast(valPayload{v: e.ctx.Input})}
}

func (e *echoProc) Receive(round int, in *msg.Inbox) {
	e.inboxLens = append(e.inboxLens, in.Len())
	for i := 0; i < in.Len(); i++ {
		if vp, ok := in.BodyAt(i).(valPayload); ok {
			e.seen.Add(vp.v)
			e.seenIDs[in.SenderAt(i)] = true
			e.counts[in.MessageAt(i).Key()] += in.CountAt(i)
		}
	}
	if round >= e.decideAt && !e.decided {
		vs := e.seen.Values()
		if len(vs) > 0 {
			e.decided, e.decision = true, vs[0]
		}
	}
}

func (e *echoProc) Decision() (hom.Value, bool) { return e.decision, e.decided }

// run executes a hand-built Config on the concrete representation.
func run(cfg engine.Config) (*engine.Result, error) {
	return engine.Run(cfg, engine.WithStateRep(engine.Concrete()))
}

// runCounting is run on the counting representation.
func runCounting(cfg engine.Config) (*engine.Result, error) {
	return engine.Run(cfg, engine.WithStateRep(engine.Counting()))
}

func baseConfig(n, l, t int) engine.Config {
	p := hom.Params{N: n, L: l, T: t, Synchrony: hom.Synchronous}
	inputs := make([]hom.Value, n)
	for i := range inputs {
		inputs[i] = hom.Value(i % 2)
	}
	return engine.Config{
		Params:     p,
		Assignment: hom.RoundRobinAssignment(n, l),
		Inputs:     inputs,
		NewProcess: func(int) engine.Process { return &echoProc{} },
		MaxRounds:  10,
	}
}

func TestRunFaultFree(t *testing.T) {
	cfg := baseConfig(4, 4, 1)
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllDecided {
		t.Fatal("not all processes decided")
	}
	for s, v := range res.Decisions {
		if v != 0 {
			t.Fatalf("slot %d decided %d, want 0 (min of {0,1})", s, v)
		}
		if res.DecidedAt[s] != 2 {
			t.Fatalf("slot %d decided at round %d, want 2", s, res.DecidedAt[s])
		}
	}
	// 4 procs broadcasting to 4 slots for 2 rounds = 32 deliveries.
	if res.Stats.MessagesDelivered != 32 {
		t.Fatalf("MessagesDelivered = %d, want 32", res.Stats.MessagesDelivered)
	}
	if res.Stats.MessagesDropped != 0 {
		t.Fatalf("MessagesDropped = %d, want 0", res.Stats.MessagesDropped)
	}
}

func TestIdentifierStamping(t *testing.T) {
	// Homonyms: slots 0 and 2 share identifier 1; the receiver must see
	// their identifier, never their slot.
	cfg := baseConfig(4, 2, 1)
	cfg.RecordTraffic = true
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range res.Traffic {
		want := cfg.Assignment[d.FromSlot]
		if d.Msg.ID != want {
			t.Fatalf("delivery from slot %d stamped %d, want %d", d.FromSlot, d.Msg.ID, want)
		}
	}
}

// byzRaw is a minimal adversary: corrupts slot 0, sends a fixed payload to
// everyone, optionally several copies, and drops nothing.
type byzRaw struct {
	copies int
	body   msg.Payload
}

func (b *byzRaw) Corrupt(p hom.Params, _ hom.Assignment, _ []hom.Value) []int { return []int{0} }
func (b *byzRaw) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	var out []msg.TargetedSend
	for to := 0; to < view.Params.N; to++ {
		for c := 0; c < b.copies; c++ {
			out = append(out, msg.TargetedSend{ToSlot: to, Body: b.body})
		}
	}
	return out
}
func (b *byzRaw) Drop(int, int, int) bool { return false }

func TestByzantineCannotForgeIdentifier(t *testing.T) {
	cfg := baseConfig(4, 4, 1)
	cfg.Adversary = &byzRaw{copies: 1, body: msg.Raw("forged")}
	cfg.RecordTraffic = true
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range res.Traffic {
		if d.FromSlot == 0 && d.Msg.ID != cfg.Assignment[0] {
			t.Fatalf("byzantine delivery stamped %d, want true identifier %d", d.Msg.ID, cfg.Assignment[0])
		}
	}
	if len(res.Corrupted) != 1 || res.Corrupted[0] != 0 {
		t.Fatalf("Corrupted = %v, want [0]", res.Corrupted)
	}
	if !res.IsCorrupted(0) || res.IsCorrupted(1) {
		t.Fatal("IsCorrupted misreports")
	}
}

func TestRestrictedByzantineEnforced(t *testing.T) {
	cfg := baseConfig(4, 4, 1)
	cfg.Params.RestrictedByzantine = true
	cfg.Params.Numerate = true
	cfg.Adversary = &byzRaw{copies: 3, body: msg.Raw("x")}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stats.RestrictedViolations == 0 {
		t.Fatal("expected restricted violations to be recorded")
	}
	// Each recipient must have received exactly 1 copy per round from the
	// byzantine slot: per round 4 recipients x 1 copy, 2 extra copies each
	// discarded.
	perRound := 4 * 2
	if res.Stats.RestrictedViolations != perRound*res.Rounds {
		t.Fatalf("RestrictedViolations = %d, want %d", res.Stats.RestrictedViolations, perRound*res.Rounds)
	}
}

func TestUnrestrictedMultiSendCounted(t *testing.T) {
	// A numerate receiver must see 3 copies from an unrestricted
	// byzantine sender.
	var got int
	cfg := baseConfig(4, 4, 1)
	cfg.Params.Numerate = true
	cfg.Adversary = &byzRaw{copies: 3, body: msg.Raw("x")}
	cfg.NewProcess = func(slot int) engine.Process {
		return &probeProc{onReceive: func(round int, in *msg.Inbox) {
			if round == 1 && slot == 1 {
				lo, hi := in.IdentifierRange(1)
				for i := lo; i < hi; i++ {
					if in.BodyAt(i).Key() == msg.Raw("x").Key() {
						got = in.CountAt(i)
					}
				}
			}
		}}
	}
	if _, err := run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 3 {
		t.Fatalf("numerate receiver counted %d copies, want 3", got)
	}
}

// probeProc lets tests send and observe inboxes without implementing a
// protocol; it decides 0 once it has received.
type probeProc struct {
	onPrepare func(round int) []msg.Send
	onReceive func(round int, in *msg.Inbox)
	decided   bool
}

func (p *probeProc) Init(engine.Context) {}
func (p *probeProc) Prepare(r int) []msg.Send {
	if p.onPrepare != nil {
		return p.onPrepare(r)
	}
	return nil
}
func (p *probeProc) Receive(r int, in *msg.Inbox) {
	if p.onReceive != nil {
		p.onReceive(r, in)
	}
	p.decided = true
}
func (p *probeProc) Decision() (hom.Value, bool) { return 0, p.decided }

// dropAll is an adversary that corrupts nobody but tries to drop every
// message every round.
type dropAll struct{}

func (dropAll) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int { return nil }
func (dropAll) Sends(int, int, *engine.View) []msg.TargetedSend       { return nil }
func (dropAll) Drop(int, int, int) bool                               { return true }

func TestSynchronousIgnoresDrops(t *testing.T) {
	cfg := baseConfig(4, 4, 1)
	cfg.Adversary = dropAll{}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stats.MessagesDropped != 0 {
		t.Fatal("synchronous engine honoured drops")
	}
	if !res.AllDecided {
		t.Fatal("processes failed to decide in synchronous run")
	}
}

func TestGSTStopsDrops(t *testing.T) {
	cfg := baseConfig(4, 4, 1)
	cfg.Params.Synchrony = hom.PartiallySynchronous
	cfg.GST = 4
	cfg.Adversary = dropAll{}
	cfg.NewProcess = func(int) engine.Process { return &echoProc{decideAt: 6} }
	cfg.MaxRounds = 10
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Rounds 1..3: all non-self messages dropped (4*3 = 12 per round).
	if res.Stats.MessagesDropped != 12*3 {
		t.Fatalf("MessagesDropped = %d, want 36", res.Stats.MessagesDropped)
	}
	if !res.AllDecided {
		t.Fatal("processes failed to decide after GST")
	}
}

func TestSelfDeliveryIsReliable(t *testing.T) {
	cfg := baseConfig(4, 4, 1)
	cfg.Params.Synchrony = hom.PartiallySynchronous
	cfg.GST = 100 // drops allowed for the whole run
	cfg.Adversary = dropAll{}
	sawSelf := false
	cfg.NewProcess = func(slot int) engine.Process {
		if slot != 2 {
			return &echoProc{}
		}
		return &probeProc{
			onPrepare: func(int) []msg.Send { return []msg.Send{msg.Broadcast(msg.Raw("self"))} },
			onReceive: func(_ int, in *msg.Inbox) {
				for i := 0; i < in.Len(); i++ {
					sawSelf = sawSelf || in.BodyAt(i).Key() == msg.Raw("self").Key()
				}
			},
		}
	}
	cfg.MaxRounds = 3
	if _, err := run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sawSelf {
		t.Fatal("self-delivery was dropped")
	}
}

func TestVisibilityMask(t *testing.T) {
	// Slot 3 is invisible to slot 0: slot 0's inbox must never contain a
	// message whose true sender is slot 3. With a round-robin assignment
	// over 4 identifiers, identifier 4 only belongs to slot 3, so slot 0
	// must never see identifier 4.
	cfg := baseConfig(4, 4, 1)
	cfg.Visibility = func(from, to int) bool { return !(from == 3 && to == 0) }
	var sawID4 bool
	cfg.NewProcess = func(slot int) engine.Process {
		if slot != 0 {
			return &echoProc{}
		}
		return &probeProc{onReceive: func(_ int, in *msg.Inbox) {
			if lo, hi := in.IdentifierRange(4); lo < hi {
				sawID4 = true
			}
		}}
	}
	if _, err := run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sawID4 {
		t.Fatal("visibility mask leaked a message")
	}
}

func TestSendToIdentifier(t *testing.T) {
	// A ToIdentifier send must reach exactly the slots holding that
	// identifier.
	cfg := baseConfig(4, 2, 1) // slots 0,2 -> id 1; slots 1,3 -> id 2
	reached := make(map[int]bool)
	cfg.NewProcess = func(slot int) engine.Process {
		if slot == 0 {
			return &probeProc{onPrepare: func(round int) []msg.Send {
				if round == 1 {
					return []msg.Send{msg.SendTo(2, msg.Raw("targeted"))}
				}
				return nil
			}}
		}
		return &probeProc{onReceive: func(_ int, in *msg.Inbox) {
			for i := 0; i < in.Len(); i++ {
				if in.BodyAt(i).Key() == msg.Raw("targeted").Key() {
					reached[slot] = true
				}
			}
		}}
	}
	cfg.MaxRounds = 2
	if _, err := run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reached[1] != true || reached[3] != true {
		t.Fatalf("identifier-2 slots not reached: %v", reached)
	}
	if reached[2] {
		t.Fatal("identifier-1 slot received a message targeted at identifier 2")
	}
}

func TestConfigValidation(t *testing.T) {
	good := baseConfig(4, 4, 1)

	bad := good
	bad.MaxRounds = 0
	if _, err := run(bad); !errors.Is(err, engine.ErrNoRoundCap) {
		t.Fatalf("want engine.ErrNoRoundCap, got %v", err)
	}

	bad = good
	bad.NewProcess = nil
	if _, err := run(bad); !errors.Is(err, engine.ErrNilProcessFactory) {
		t.Fatalf("want engine.ErrNilProcessFactory, got %v", err)
	}

	bad = good
	bad.Inputs = bad.Inputs[:2]
	if _, err := run(bad); !errors.Is(err, hom.ErrInputLength) {
		t.Fatalf("want ErrInputLength, got %v", err)
	}

	bad = good
	bad.Assignment = hom.Assignment{1, 1, 1, 1}
	if _, err := run(bad); err == nil {
		t.Fatal("want assignment validation error")
	}
}

// overCorrupt corrupts more slots than T.
type overCorrupt struct{}

func (overCorrupt) Corrupt(p hom.Params, _ hom.Assignment, _ []hom.Value) []int {
	out := make([]int, p.T+1)
	for i := range out {
		out[i] = i
	}
	return out
}
func (overCorrupt) Sends(int, int, *engine.View) []msg.TargetedSend { return nil }
func (overCorrupt) Drop(int, int, int) bool                         { return false }

func TestAdversaryBudgetEnforced(t *testing.T) {
	cfg := baseConfig(4, 4, 1)
	cfg.Adversary = overCorrupt{}
	if _, err := run(cfg); !errors.Is(err, engine.ErrTooManyCorrupt) {
		t.Fatalf("want engine.ErrTooManyCorrupt, got %v", err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() *engine.Result {
		cfg := baseConfig(6, 3, 1)
		cfg.Adversary = &byzRaw{copies: 2, body: msg.Raw("x")}
		cfg.RecordTraffic = true
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Stats != b.Stats || len(a.Traffic) != len(b.Traffic) {
		t.Fatal("replay diverged on rounds/stats/traffic size")
	}
	for i := range a.Traffic {
		if a.Traffic[i] != b.Traffic[i] {
			t.Fatalf("replay diverged at delivery %d: %+v vs %+v", i, a.Traffic[i], b.Traffic[i])
		}
	}
}

func TestExtraRounds(t *testing.T) {
	cfg := baseConfig(4, 4, 1)
	cfg.ExtraRounds = 3
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Decision at round 2, plus 3 extra rounds.
	if res.Rounds != 5 {
		t.Fatalf("Rounds = %d, want 5", res.Rounds)
	}
}
