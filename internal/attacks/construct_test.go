package attacks

import (
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// pingProc broadcasts a constant and decides once it has heard k distinct
// identifiers.
type pingProc struct {
	id      hom.Identifier
	k       int
	heard   map[hom.Identifier]bool
	decided bool
}

func (p *pingProc) Init(ctx engine.Context) {
	p.id = ctx.ID
	p.heard = map[hom.Identifier]bool{}
}

func (p *pingProc) Prepare(int) []msg.Send {
	return []msg.Send{msg.Broadcast(msg.Raw("ping"))}
}

func (p *pingProc) Receive(_ int, in *msg.Inbox) {
	for i := 0; i < in.Len(); i++ {
		p.heard[in.SenderAt(i)] = true
	}
	if len(p.heard) >= p.k {
		p.decided = true
	}
}

func (p *pingProc) Decision() (hom.Value, bool) { return hom.Value(len(p.heard)), p.decided }

// runProcs runs the given processes, one per slot, through construct for
// the given rounds; a nil process marks a slot silenced by its adversary.
func runProcs(t *testing.T, p hom.Params, ids hom.Assignment, procs []engine.Process, rounds int, opts ...engine.Option) *engine.Result {
	t.Helper()
	res, err := construct(p, ids, make([]hom.Value, len(ids)),
		func(slot int) engine.Process { return procs[slot] }, append(opts, engine.WithRounds(rounds))...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorldCompleteRouting(t *testing.T) {
	procs := []engine.Process{&pingProc{k: 3}, &pingProc{k: 3}, &pingProc{k: 3}}
	res := runProcs(t, hom.Params{N: 3, L: 3, T: 0, Synchrony: hom.Synchronous}, hom.Assignment{1, 2, 3}, procs, 1)
	if !res.AllDecided {
		t.Fatal("complete routing failed to deliver everything")
	}
	if dec := res.Decisions; dec[0] != 3 {
		t.Fatalf("slot 0 heard %d identifiers, want 3", dec[0])
	}
}

func TestWorldRouteMask(t *testing.T) {
	procs := []engine.Process{&pingProc{k: 3}, &pingProc{k: 3}, &pingProc{k: 2}}
	// Slot 2 never hears slot 0.
	route := func(from, to int) bool { return !(from == 0 && to == 2) }
	res := runProcs(t, hom.Params{N: 3, L: 3, T: 0, Synchrony: hom.Synchronous}, hom.Assignment{1, 2, 3}, procs, 3,
		engine.WithVisibility(route))
	dec := res.Decisions
	if dec[2] != 2 {
		t.Fatalf("masked slot heard %d identifiers, want 2", dec[2])
	}
	if dec[0] != 3 || dec[1] != 3 {
		t.Fatalf("unmasked slots heard %d/%d, want 3/3", dec[0], dec[1])
	}
}

func TestWorldSilentSlots(t *testing.T) {
	procs := []engine.Process{&pingProc{k: 2}, nil, &pingProc{k: 2}}
	res := runProcs(t, hom.Params{N: 3, L: 3, T: 1, Synchrony: hom.Synchronous}, hom.Assignment{1, 2, 3}, procs, 1,
		engine.WithAdversary(&silence{lo: 2, hi: 2}))
	dec := res.Decisions
	if dec[1] != hom.NoValue {
		t.Fatal("silent slot reported a decision")
	}
	if dec[0] != 2 || dec[2] != 2 {
		t.Fatalf("live slots heard %d/%d identifiers, want 2/2 (silent slot mute)", dec[0], dec[2])
	}
}

func TestWorldIdentifierTargetedSends(t *testing.T) {
	sender := &targetedProc{}
	rcv1 := &pingProc{k: 99}
	rcv2 := &pingProc{k: 99}
	res := runProcs(t, hom.Params{N: 3, L: 2, T: 0, Synchrony: hom.Synchronous}, hom.Assignment{1, 2, 2},
		[]engine.Process{sender, rcv1, rcv2}, 1)
	// The ToIdentifier(2) send must reach both identifier-2 slots (which
	// also hear each other's broadcasts, so they see identifiers 1 and 2)
	// but must NOT loop back to the identifier-1 sender, which therefore
	// only hears the identifier-2 broadcasts.
	if !rcv1.heard[1] || !rcv2.heard[1] {
		t.Fatalf("identifier-2 slots missed the targeted send: %v / %v", rcv1.heard, rcv2.heard)
	}
	if sender.heard[1] {
		t.Fatalf("sender received its own identifier-2-addressed message: %v", sender.heard)
	}
	if !sender.heard[2] {
		t.Fatalf("sender missed the identifier-2 broadcasts: %v", sender.heard)
	}
	// Two deliveries of the targeted send plus three of each broadcast.
	if got := res.Stats.MessagesSent; got != 8 {
		t.Fatalf("%d messages sent, want 8", got)
	}
}

type targetedProc struct {
	heard map[hom.Identifier]bool
}

func (p *targetedProc) Init(engine.Context) { p.heard = map[hom.Identifier]bool{} }
func (p *targetedProc) Prepare(int) []msg.Send {
	return []msg.Send{msg.SendTo(2, msg.Raw("direct"))}
}
func (p *targetedProc) Receive(_ int, in *msg.Inbox) {
	for i := 0; i < in.Len(); i++ {
		p.heard[in.SenderAt(i)] = true
	}
}
func (p *targetedProc) Decision() (hom.Value, bool) { return hom.NoValue, false }

func TestWorldNumerateReception(t *testing.T) {
	// Two clones of identifier 1 broadcast the same payload: a numerate
	// receiver must count 2 copies.
	counter := &copyCounter{}
	procs := []engine.Process{&pingProc{k: 9}, &pingProc{k: 9}, counter}
	runProcs(t, hom.Params{N: 3, L: 2, T: 0, Synchrony: hom.Synchronous, Numerate: true}, hom.Assignment{1, 1, 2}, procs, 1)
	if counter.copies != 2 {
		t.Fatalf("numerate receiver counted %d copies, want 2", counter.copies)
	}
}

type copyCounter struct{ copies int }

func (c *copyCounter) Init(engine.Context)    {}
func (c *copyCounter) Prepare(int) []msg.Send { return nil }
func (c *copyCounter) Receive(_ int, in *msg.Inbox) {
	lo, hi := in.IdentifierRange(1)
	for i := lo; i < hi; i++ {
		if in.BodyAt(i).Key() == msg.Raw("ping").Key() {
			c.copies = in.CountAt(i)
		}
	}
}
func (c *copyCounter) Decision() (hom.Value, bool) { return hom.NoValue, false }
