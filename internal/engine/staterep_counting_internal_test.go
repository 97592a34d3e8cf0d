package engine

import (
	"testing"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// lastFoldProc broadcasts a constant and keeps a fold of the latest
// inbox only, so a class split by one poisoned round re-converges after
// the next clean one.
type lastFoldProc struct{ last string }

func (p *lastFoldProc) Init(Context) {}
func (p *lastFoldProc) Prepare(int) []msg.Send {
	return []msg.Send{msg.Broadcast(msg.Raw("x"))}
}
func (p *lastFoldProc) Receive(_ int, in *msg.Inbox)    { p.last = inboxFingerprint(in) }
func (p *lastFoldProc) Decision() (hom.Value, bool)     { return hom.NoValue, false }
func (p *lastFoldProc) CloneProcess() Process           { cp := *p; return &cp }
func (p *lastFoldProc) StateFingerprint() msg.StateHash { return msg.NewStateHash().String(p.last) }

// poisonPlan is a one-slot adversary sending scripted targeted messages.
type poisonPlan struct {
	bad  int
	plan map[int][]msg.TargetedSend
}

func (a poisonPlan) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int { return []int{a.bad} }
func (a poisonPlan) Drop(int, int, int) bool                               { return false }
func (a poisonPlan) Sends(round, _ int, _ *View) []msg.TargetedSend        { return a.plan[round] }

// TestCountingClassIndexThroughSplitMergeSplit drives the slow path
// round by round through a split, the re-merge and a second split, and
// checks the per-slot class index and the member lists after every
// round: lists strictly ascending, classes ordered by leader, every
// correct slot in exactly the class its index names, and
// Engine.Process(slot) answering with that class's process (nil for the
// corrupted slot).
func TestCountingClassIndexThroughSplitMergeSplit(t *testing.T) {
	const n, l, bad = 12, 4, 3
	poison := func(to int) []msg.TargetedSend {
		return []msg.TargetedSend{{ToSlot: to, Body: msg.Raw("poison")}}
	}
	e, err := New(
		WithParams(hom.Params{N: n, L: l, T: 1, Synchrony: hom.Synchronous}),
		WithAssignment(hom.RoundRobinAssignment(n, l)),
		WithInputs(make([]hom.Value, n)...),
		WithProcess(func(int) Process { return &lastFoldProc{} }),
		WithAdversary(poisonPlan{bad: bad, plan: map[int][]msg.TargetedSend{2: poison(4), 4: poison(8), 5: poison(8)}}),
		WithRounds(8),
		WithStateRep(Counting()),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.rep.(*countingRep)
	defer func() {
		rep.Stop()
		e.intern.Recycle()
	}()
	if err := rep.Start(e); err != nil {
		t.Fatal(err)
	}
	// Identifier 1 is held by {0, 4, 8}: round 2 splits off {4}, round 3
	// re-merges, rounds 4 and 5 split off {8}, round 6 re-merges.
	wantClasses := []int{4, 5, 4, 5, 5, 4}
	for round, want := range wantClasses {
		round++
		if err := e.Step(round); err != nil {
			t.Fatal(err)
		}
		if got := rep.ClassCount(); got != want {
			t.Fatalf("round %d: %d classes, want %d", round, got, want)
		}
		seen := make([]int, n)
		for i, c := range rep.classes {
			if rep.table[c.idx] != c {
				t.Errorf("round %d: class led by %d is not at its table entry %d", round, c.members[0], c.idx)
			}
			if i > 0 && rep.classes[i-1].members[0] >= c.members[0] {
				t.Errorf("round %d: classes out of leader order at %d", round, i)
			}
			for j, m := range c.members {
				if j > 0 && c.members[j-1] >= m {
					t.Errorf("round %d: members of class %d not strictly ascending: %v", round, c.idx, c.members)
				}
				seen[m]++
				if rep.classOf[m] != c.idx {
					t.Errorf("round %d: slot %d indexed to class %d, listed in %d", round, m, rep.classOf[m], c.idx)
				}
				if e.Process(int(m)) != c.proc {
					t.Errorf("round %d: Engine.Process(%d) is not its class's process", round, m)
				}
			}
		}
		for s, k := range seen {
			if s == bad {
				if k != 0 || e.Process(s) != nil {
					t.Errorf("round %d: corrupted slot %d is in %d classes, process %v", round, s, k, e.Process(s))
				}
			} else if k != 1 {
				t.Errorf("round %d: slot %d is in %d classes", round, s, k)
			}
		}
	}
}

// decideAtTwo is lastFoldProc deciding in round 2.
type decideAtTwo struct {
	lastFoldProc
	done bool
}

func (p *decideAtTwo) Receive(round int, in *msg.Inbox) {
	p.lastFoldProc.Receive(round, in)
	p.done = p.done || round >= 2
}
func (p *decideAtTwo) Decision() (hom.Value, bool) { return 7, p.done }
func (p *decideAtTwo) CloneProcess() Process       { cp := *p; return &cp }

// TestCountingSplitInDecidingRoundRecordsEveryPart splits a class in the
// very round its process decides: one targeted message peels slot 4 off
// identifier 1's class {0, 2, 4, 6} in round 2. Every part must poll and
// record its own members — a fork carrying the leader part's same-round
// decision record would skip the poll and leave slot 4 undecided for
// good.
func TestCountingSplitInDecidingRoundRecordsEveryPart(t *testing.T) {
	const n, l, bad = 8, 2, 1
	e, err := New(
		WithParams(hom.Params{N: n, L: l, T: 1, Synchrony: hom.Synchronous}),
		WithAssignment(hom.RoundRobinAssignment(n, l)),
		WithInputs(make([]hom.Value, n)...),
		WithProcess(func(int) Process { return &decideAtTwo{} }),
		WithAdversary(poisonPlan{bad: bad, plan: map[int][]msg.TargetedSend{
			2: {{ToSlot: 4, Body: msg.Raw("poison")}},
		}}),
		WithRounds(4),
		WithStateRep(Counting()),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.rep.(*countingRep)
	defer func() {
		rep.Stop()
		e.intern.Recycle()
	}()
	if err := rep.Start(e); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		if err := e.Step(round); err != nil {
			t.Fatal(err)
		}
	}
	if got := rep.ClassCount(); got != l+1 {
		t.Fatalf("round 2 left %d classes, want %d (slot 4 split off)", got, l+1)
	}
	for _, c := range rep.classes {
		if c.decidedAt != 2 {
			t.Errorf("class led by %d: decidedAt = %d, want 2", c.members[0], c.decidedAt)
		}
		for _, m := range c.members {
			if e.res.Decisions[m] != 7 || e.res.DecidedAt[m] != 2 {
				t.Errorf("slot %d (class led by %d): recorded decision %d in round %d, want 7 in round 2",
					m, c.members[0], e.res.Decisions[m], e.res.DecidedAt[m])
			}
		}
	}
	if e.undecided != 0 {
		t.Errorf("%d correct slots still undecided after round 2", e.undecided)
	}
}
