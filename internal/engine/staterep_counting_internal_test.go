package engine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"homonyms/internal/hom"
	"homonyms/internal/inject"
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

// TestCountingClassIndexThroughSplitMergeSplit drives the representation
// round by round through splits, re-merges and later splits, and checks
// the class index after every round: classes live at their table
// entries and ordered by leader; every correct slot resolving, in one
// hop, to a live class; each class's size the number of slots resolving
// to it and its leader the smallest of them; and Engine.Process(slot)
// answering with the slot's class's process — the survivor's once a
// merge forwarded the slot's entry — and nil for the corrupted slot.
// Identifier 1 is held by {0, 4, 8}. A merge writes no slot, so a split
// after it must leave the merged-away entry alone until a pass has
// re-pointed its slots, and then reuse it instead of growing the table.
func TestCountingClassIndexThroughSplitMergeSplit(t *testing.T) {
	const n, l, bad = 12, 4, 3
	poison := func(to int) []msg.TargetedSend {
		return []msg.TargetedSend{{ToSlot: to, Body: msg.Raw("poison")}}
	}
	for _, tc := range []struct {
		name        string
		plan        map[int][]msg.TargetedSend
		crashes     []inject.Crash
		wantClasses []int // after rounds 1, 2, ...
		wantTable   int   // table entries ever in use
	}{{
		// Round 2 splits off {4}, round 3 re-merges, rounds 4 and 5 split
		// off {8}, round 6 re-merges. Rounds 1 and 3 are clean and run no
		// pass, so round 4's is the first since the merge: it frees the
		// forwarded entry only once it has re-pointed every slot, after
		// {8} took a new one.
		name:        "poison",
		plan:        map[int][]msg.TargetedSend{2: poison(4), 4: poison(8), 5: poison(8)},
		wantClasses: []int{4, 5, 4, 5, 5, 4},
		wantTable:   6,
	}, {
		// Round 2 splits off {8} and round 3 re-merges it, forwarding its
		// entry. Slot 4 crashes in round 4 and misses the poison {0, 8}
		// receive: the pass that splits it off meets slot 4 before it
		// re-points slot 8, so the part must not take the forwarded entry.
		// It re-merges in round 5, and round 6's split of {8} reuses a
		// reclaimed entry.
		name: "crash-after-merge",
		plan: map[int][]msg.TargetedSend{
			2: poison(8),
			4: append(poison(0), poison(8)...),
			6: poison(8),
		},
		crashes:     []inject.Crash{{Slot: 4, Round: 4, Recover: 1}},
		wantClasses: []int{4, 5, 4, 5, 4, 5, 4},
		wantTable:   6,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{
				WithParams(hom.Params{N: n, L: l, T: 1, Synchrony: hom.Synchronous}),
				WithAssignment(hom.RoundRobinAssignment(n, l)),
				WithInputs(make([]hom.Value, n)...),
				WithProcess(func(int) Process { return &lastFoldProc{} }),
				WithAdversary(poisonPlan{bad: bad, plan: tc.plan}),
				WithRounds(len(tc.wantClasses) + 2),
				WithStateRep(Counting()),
			}
			if tc.crashes != nil {
				opts = append(opts, WithFaults(&inject.Schedule{Crashes: tc.crashes}))
			}
			e, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			rep := e.cfg.rep.(*countingRep)
			defer func() {
				rep.Stop()
				e.intern.Recycle()
			}()
			if err := rep.Start(e); err != nil {
				t.Fatal(err)
			}
			forwarded := 0
			for round, want := range tc.wantClasses {
				round++
				if err := e.step(round); err != nil {
					t.Fatal(err)
				}
				if got := rep.ClassCount(); got != want {
					t.Fatalf("round %d: %d classes, want %d", round, got, want)
				}
				forwarded += checkClassIndex(t, round, e, rep, bad)
			}
			if forwarded == 0 {
				t.Error("no slot ever resolved through a forwarded entry: nothing merged")
			}
			if got := len(rep.table); got != tc.wantTable {
				t.Errorf("table grew to %d entries, want %d (a reclaimed entry reused)", got, tc.wantTable)
			}
		})
	}
}

// checkClassIndex checks the counting representation's class index
// invariants after a round (see TestCountingClassIndexThroughSplitMergeSplit)
// and returns how many slots resolve through a forwarded entry.
func checkClassIndex(t *testing.T, round int, e *Engine, rep *countingRep, bad int) (forwarded int) {
	t.Helper()
	size := make(map[*countClass]int32)
	leader := make(map[*countClass]int32)
	for i, c := range rep.classes {
		if rep.table[c.idx] != c {
			t.Errorf("round %d: class led by %d is not at its table entry %d", round, c.leader, c.idx)
		}
		if i > 0 && rep.classes[i-1].leader >= c.leader {
			t.Errorf("round %d: classes out of leader order at %d", round, i)
		}
		size[c] = 0
	}
	for s, ci := range rep.classOf {
		if s == bad {
			if ci != -1 || e.Process(s) != nil {
				t.Errorf("round %d: corrupted slot %d indexed to %d, process %v", round, s, ci, e.Process(s))
			}
			continue
		}
		c := rep.table[ci]
		if c != nil && c.idx != ci {
			forwarded++
		}
		if _, live := size[c]; !live {
			t.Errorf("round %d: slot %d resolves through entry %d to no live class", round, s, ci)
			continue
		}
		if size[c] == 0 {
			leader[c] = int32(s)
		}
		size[c]++
		if e.Process(s) != c.proc {
			t.Errorf("round %d: Engine.Process(%d) is not its class's process", round, s)
		}
	}
	for c, k := range size {
		if k != c.size || leader[c] != c.leader {
			t.Errorf("round %d: class at entry %d says size %d leader %d, its slots say %d and %d",
				round, c.idx, c.size, c.leader, k, leader[c])
		}
	}
	return forwarded
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
	rep := e.cfg.rep.(*countingRep)
	defer func() {
		rep.Stop()
		e.intern.Recycle()
	}()
	if err := rep.Start(e); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		if err := e.step(round); err != nil {
			t.Fatal(err)
		}
	}
	if got := rep.ClassCount(); got != l+1 {
		t.Fatalf("round 2 left %d classes, want %d (slot 4 split off)", got, l+1)
	}
	for _, c := range rep.classes {
		if c.decidedAt != 2 {
			t.Errorf("class led by %d: decidedAt = %d, want 2", c.leader, c.decidedAt)
		}
	}
	for s, ci := range rep.classOf {
		if ci >= 0 && (e.res.Decisions[s] != 7 || e.res.DecidedAt[s] != 2) {
			t.Errorf("slot %d (class led by %d): recorded decision %d in round %d, want 7 in round 2",
				s, rep.table[ci].leader, e.res.Decisions[s], e.res.DecidedAt[s])
		}
	}
	if e.undecided != 0 {
		t.Errorf("%d correct slots still undecided after round 2", e.undecided)
	}
}

// startProc broadcasts its input, folds its latest inbox, and decides its
// input once round 2 is received. plainProc is the same protocol
// without CloneProcess.
type startProc struct {
	in   hom.Value
	last string
	done bool
}

func (p *startProc) Init(ctx Context) { p.in = ctx.Input }
func (p *startProc) Prepare(int) []msg.Send {
	return []msg.Send{msg.Broadcast(msg.Raw(itoaTest(int(p.in))))}
}
func (p *startProc) Receive(round int, in *msg.Inbox) {
	p.last, p.done = inboxFingerprint(in), p.done || round >= 2
}
func (p *startProc) Decision() (hom.Value, bool) { return p.in, p.done }
func (p *startProc) CloneProcess() Process       { cp := *p; return &cp }

type plainProc struct{ Process }

// silentCorrupt corrupts a fixed set of slots, which then stay silent.
type silentCorrupt []int

func (a silentCorrupt) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int { return a }
func (a silentCorrupt) Drop(int, int, int) bool                               { return false }
func (a silentCorrupt) Sends(int, int, *View) []msg.TargetedSend              { return nil }

// TestCountingStartMatchesNaiveGrouping holds Start's classification to
// a naive map-based grouping on hostile shapes: inputs at and past the
// dense range mixed with binary ones, corrupted slots interleaved with
// correct ones, and a factory mixing Cloner and non-Cloner processes —
// with the first correct slot's process a Cloner (collapse on) or not
// (off). Under collapse a slot joins the class of its (identifier,
// input) pair unless none is open, and a class opens only for a Cloner
// leader; otherwise every correct slot leads its own. Leaders, sizes and
// ClassCount must match, and the run's Result must equal Concrete's.
func TestCountingStartMatchesNaiveGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	values := []hom.Value{0, 1, 0, 1, 2, 3, 4, 5, 9, 1000}
	collapsed := 0
	const cases = 150
	for i := 0; i < cases; i++ {
		n := 8 + rng.Intn(120)
		l := 1 + rng.Intn(6)
		assignment := hom.RandomAssignment(n, l, rng.Int63())
		inputs := make([]hom.Value, n)
		for s := range inputs {
			inputs[s] = values[rng.Intn(len(values))]
		}
		var bad silentCorrupt
		for s := range n {
			if rng.Intn(5) == 0 && len(bad) < n/4 {
				bad = append(bad, s)
			}
		}
		isBad := make(map[int]bool)
		for _, s := range bad {
			isBad[s] = true
		}
		plainEvery, plainAt := 2+rng.Intn(3), rng.Intn(2)
		factory := func(s int) Process {
			if s%plainEvery == plainAt {
				return plainProc{&startProc{}}
			}
			return &startProc{}
		}
		first := 0
		for isBad[first] {
			first++
		}
		_, collapse := factory(first).(Cloner)
		if collapse {
			collapsed++
		}

		type key struct {
			id hom.Identifier
			in hom.Value
		}
		open := make(map[key]int)
		var leaders, sizes []int32
		for s := range n {
			if isBad[s] {
				continue
			}
			k := key{assignment[s], inputs[s]}
			if g, ok := open[k]; ok && collapse {
				sizes[g]++
				continue
			}
			leaders, sizes = append(leaders, int32(s)), append(sizes, 1)
			if _, ok := factory(s).(Cloner); ok {
				open[k] = len(leaders) - 1
			}
		}

		opts := []Option{
			WithParams(hom.Params{N: n, L: l, T: max(len(bad), 1), Synchrony: hom.Synchronous}),
			WithAssignment(assignment),
			WithInputs(inputs...),
			WithProcess(factory),
			WithRounds(4),
		}
		if len(bad) > 0 {
			opts = append(opts, WithAdversary(bad))
		}
		e, err := New(append(opts, WithStateRep(Counting()))...)
		if err != nil {
			t.Fatal(err)
		}
		rep := e.cfg.rep.(*countingRep)
		if err := rep.Start(e); err != nil {
			t.Fatal(err)
		}
		var gotLeaders, gotSizes []int32
		for _, c := range rep.classes {
			gotLeaders, gotSizes = append(gotLeaders, c.leader), append(gotSizes, c.size)
		}
		rep.Stop()
		e.intern.Recycle()
		if !reflect.DeepEqual(gotLeaders, leaders) || !reflect.DeepEqual(gotSizes, sizes) || rep.ClassCount() != len(leaders) {
			t.Fatalf("case %d (n=%d, l=%d, collapse %v): Start made %d classes, leaders %v sizes %v; want %d, %v, %v",
				i, n, l, collapse, rep.ClassCount(), gotLeaders, gotSizes, len(leaders), leaders, sizes)
		}

		counting, err := Run(append(opts, WithStateRep(Counting()))...)
		if err != nil {
			t.Fatal(err)
		}
		concrete, err := Run(append(opts, WithStateRep(Concrete()))...)
		if err != nil {
			t.Fatal(err)
		}
		counting.Traffic, concrete.Traffic = nil, nil
		if !reflect.DeepEqual(counting, concrete) {
			t.Fatalf("case %d: counting result %+v, concrete %+v", i, counting, concrete)
		}
	}
	if collapsed == 0 || collapsed == cases {
		t.Fatalf("collapse on in %d of %d cases: both ways must be exercised", collapsed, cases)
	}
}

// repollProc is lastFoldProc deciding from round 2 on, unless it was
// ever poisoned — state its fingerprint leaves out, so a poisoned class
// re-merges into a decided one once their latest inboxes agree again.
type repollProc struct {
	lastFoldProc
	poisoned bool
}

func (p *repollProc) Receive(round int, in *msg.Inbox) {
	p.lastFoldProc.Receive(round, in)
	p.poisoned = p.poisoned || strings.Contains(p.last, "poison")
}
func (p *repollProc) Decision() (hom.Value, bool) { return 7, !p.poisoned && p.last != "" }
func (p *repollProc) CloneProcess() Process       { cp := *p; return &cp }

// TestCountingMergeThenRepollKeepsFirstDecidedAt merges an undecided
// class into a decided one and pins the recording rule: identifier 1's
// class {0, 2, 4, 6} decides in round 1 but for slot 4, poisoned then
// and split off; round 2 is clean, so {4} re-merges into {0, 2, 6},
// which is polled again and records slot 4 in round 3. Slots 0, 2 and 6
// keep round 1.
func TestCountingMergeThenRepollKeepsFirstDecidedAt(t *testing.T) {
	const n, l, bad = 8, 2, 1
	rep := Counting()
	res, err := Run(
		WithParams(hom.Params{N: n, L: l, T: 1, Synchrony: hom.Synchronous}),
		WithAssignment(hom.RoundRobinAssignment(n, l)),
		WithInputs(make([]hom.Value, n)...),
		WithProcess(func(int) Process { return &repollProc{} }),
		WithAdversary(poisonPlan{bad: bad, plan: map[int][]msg.TargetedSend{
			1: {{ToSlot: 4, Body: msg.Raw("poison")}},
		}}),
		WithRounds(6),
		WithStateRep(rep),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 1, 1, 3, 1, 1, 1}
	if !reflect.DeepEqual(res.DecidedAt, want) {
		t.Fatalf("DecidedAt = %v, want %v", res.DecidedAt, want)
	}
	if got := rep.(*countingRep).ClassCount(); got != l {
		t.Fatalf("%d classes at the end, want %d (slot 4 re-merged)", got, l)
	}
	if !res.AllDecided || res.Decisions[4] != 7 || res.Decisions[bad] != hom.NoValue {
		t.Fatalf("AllDecided %v, decisions %v", res.AllDecided, res.Decisions)
	}
}
