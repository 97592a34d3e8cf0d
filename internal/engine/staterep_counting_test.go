package engine_test

import (
	"fmt"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/core"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
	"homonyms/internal/refmodel"
)

// classCounter is the diagnostic surface of the counting representation.
type classCounter interface{ ClassCount() int }

// foldProc is the white-box probe process: every round it broadcasts a
// constant payload and folds the round's inbox into its state. With
// persist set the fold accumulates forever (any reception divergence
// keeps classes apart for the rest of the run); without it only the
// latest round's fold is kept, so classes re-converge one clean round
// after a divergence. It decides its input once round 3 has been
// received (deciding immediately would stop every run after round 1,
// before any divergence fires).
type foldProc struct {
	input   hom.Value
	persist bool
	ready   bool
	last    string
	acc     string
}

func (p *foldProc) Init(ctx engine.Context) { p.input = ctx.Input }

func (p *foldProc) Prepare(round int) []msg.Send {
	return []msg.Send{msg.Broadcast(valuePayload{p.input})}
}

func (p *foldProc) Receive(round int, in *msg.Inbox) {
	fold := ""
	for i, k := 0, in.Len(); i < k; i++ {
		fold += fmt.Sprintf("%d:%s;", in.SenderAt(i), in.BodyAt(i).Key())
	}
	p.last = fold
	if p.persist {
		p.acc += fold
	}
	if round >= 3 {
		p.ready = true
	}
}

func (p *foldProc) Decision() (hom.Value, bool) { return p.input, p.ready }

func (p *foldProc) CloneProcess() engine.Process {
	cp := *p
	return &cp
}

func (p *foldProc) StateFingerprint() msg.StateHash {
	return msg.NewStateHash().String(p.last).String(p.acc).
		Int(int(p.input)).Bool(p.persist).Bool(p.ready)
}

// targetRounds poisons specific slots in specific rounds from one
// Byzantine slot and applies a static pre-GST drop mask.
type targetRounds struct {
	bad   int
	plan  map[int][]msg.TargetedSend // round -> targeted sends
	drops map[[3]int]bool            // (round, from, to) -> drop
}

func (a targetRounds) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int { return []int{a.bad} }

func (a targetRounds) Sends(round, slot int, _ *engine.View) []msg.TargetedSend {
	if slot != a.bad {
		return nil
	}
	return a.plan[round]
}

func (a targetRounds) Drop(round, from, to int) bool {
	return a.drops[[3]int{round, from, to}]
}

// countingConfig is the shared scenario: 12 slots, 4 identifiers
// round-robin, inputs varying within each group so initial classes are
// (identifier, input) pairs — identifier g holds slots {g-1, g+3, g+7}
// with inputs {0, 1, 0}, giving 8 initial classes ({g-1, g+7} and
// {g+3} per group).
func countingConfig(persist bool, rounds int) engine.Config {
	const n, l = 12, 4
	inputs := make([]hom.Value, n)
	for s := range inputs {
		inputs[s] = hom.Value((s / 4) % 2)
	}
	return engine.Config{
		Params:     hom.Params{N: n, L: l, T: 1, Synchrony: hom.Synchronous},
		Assignment: hom.RoundRobinAssignment(n, l),
		Inputs:     inputs,
		NewProcess: func(int) engine.Process { return &foldProc{persist: persist} },
		MaxRounds:  rounds,
	}
}

// resultKey reduces a Result to its comparable essence.
func resultKey(res *engine.Result) string {
	return fmt.Sprintf("%v|%v|%v|%d|%+v", res.Decisions, res.DecidedAt, res.AllDecided, res.Rounds, res.Stats)
}

// runBoth runs the same options under Concrete and Counting and
// requires identical results; it returns the counting rep for class
// inspection.
func runBoth(t *testing.T, opts ...engine.Option) engine.StateRep {
	t.Helper()
	ref, err := engine.Run(append(opts, engine.WithStateRep(engine.Concrete()))...)
	if err != nil {
		t.Fatalf("concrete run: %v", err)
	}
	rep := engine.Counting()
	got, err := engine.Run(append(opts, engine.WithStateRep(rep))...)
	if err != nil {
		t.Fatalf("counting run: %v", err)
	}
	if resultKey(ref) != resultKey(got) {
		t.Fatalf("counting diverged from concrete:\n concrete: %s\n counting: %s",
			resultKey(ref), resultKey(got))
	}
	return rep
}

// TestCountingFastPathCollapse pins the clean-execution class count: no
// adversary and no faults keep the initial (identifier, input) classes
// for the whole run, with results identical to Concrete.
func TestCountingFastPathCollapse(t *testing.T) {
	rep := runBoth(t, countingConfig(true, 6))
	if got := rep.(classCounter).ClassCount(); got != 8 {
		t.Fatalf("fault-free run ended with %d classes, want the 8 initial (id, input) classes", got)
	}
}

// TestCountingTargetedDivergenceSplits pins the split lifecycle: a
// Byzantine targeted send to one member of the {0, 8} class gives it a
// different inbox, and with persistent protocol state the fork never
// heals.
func TestCountingTargetedDivergenceSplits(t *testing.T) {
	adv := targetRounds{bad: 3, plan: map[int][]msg.TargetedSend{
		2: {{ToSlot: 8, Body: msg.Raw("poison")}},
	}}
	rep := runBoth(t, countingConfig(true, 6), engine.WithAdversary(adv))
	if got := rep.(classCounter).ClassCount(); got != 9 {
		t.Fatalf("persistent targeted divergence ended with %d classes, want 9", got)
	}
}

// TestCountingTargetedDivergenceReunifies pins the merge lifecycle: with
// transient protocol state the split class re-converges one clean round
// after the poisoned round, and the fingerprint merge folds it back.
func TestCountingTargetedDivergenceReunifies(t *testing.T) {
	adv := targetRounds{bad: 3, plan: map[int][]msg.TargetedSend{
		2: {{ToSlot: 8, Body: msg.Raw("poison")}},
	}}
	rep := runBoth(t, countingConfig(false, 6), engine.WithAdversary(adv))
	if got := rep.(classCounter).ClassCount(); got != 8 {
		t.Fatalf("transient targeted divergence ended with %d classes, want the 8 re-unified", got)
	}
}

// TestCountingByzantineNeighbourDrop pins divergence through the
// adversary's pre-GST drop mask: suppressing one correct link into one
// class member splits the class exactly like a targeted send.
func TestCountingByzantineNeighbourDrop(t *testing.T) {
	// Slot 4 is the only sender of its (identifier, input) pair, so
	// losing its message is observable even to innumerate folds (a drop
	// of a message another homonym duplicates would re-merge instantly).
	adv := targetRounds{bad: 3, drops: map[[3]int]bool{
		{2, 4, 8}: true, // round 2: drop the slot 4 -> slot 8 link
	}}
	cfg := countingConfig(true, 6)
	cfg.Params.Synchrony = hom.PartiallySynchronous
	cfg.Adversary, cfg.GST = adv, 4
	rep := runBoth(t, cfg)
	if got := rep.(classCounter).ClassCount(); got != 9 {
		t.Fatalf("dropped-link divergence ended with %d classes, want 9", got)
	}
}

// TestCountingCrashRecoveryRejoin pins the crash lifecycle: a crash
// window splits the halted member off before its class prepares; with
// transient state the rejoined member re-converges after recovery and
// merges back.
func TestCountingCrashRecoveryRejoin(t *testing.T) {
	sched := &inject.Schedule{Crashes: []inject.Crash{{Slot: 8, Round: 2, Recover: 2}}}
	rep := runBoth(t, countingConfig(false, 8), engine.WithFaults(sched))
	if got := rep.(classCounter).ClassCount(); got != 8 {
		t.Fatalf("crash-recovery run ended with %d classes, want the 8 re-unified", got)
	}
}

// TestCountingCrashStopStaysSplit pins the crash-stop case: the dead
// member freezes at its pre-crash state and never re-converges while
// its old classmate's persistent state keeps advancing.
func TestCountingCrashStopStaysSplit(t *testing.T) {
	sched := &inject.Schedule{Crashes: []inject.Crash{{Slot: 8, Round: 2}}}
	rep := runBoth(t, countingConfig(true, 6), engine.WithFaults(sched))
	if got := rep.(classCounter).ClassCount(); got != 9 {
		t.Fatalf("crash-stop run ended with %d classes, want 9", got)
	}
}

// TestCountingSingletonFallback pins the two ways to one class per slot,
// both with results identical to Concrete: a protocol without
// CloneProcess runs so under Counting, and a protocol with it runs so
// under Concrete.
func TestCountingSingletonFallback(t *testing.T) {
	rep := runBoth(t,
		engine.WithParams(hom.Params{N: 4, L: 4, T: 0, Synchrony: hom.Synchronous}),
		engine.WithAssignment(hom.RoundRobinAssignment(4, 4)),
		engine.WithInputs(0, 1, 0, 1),
		engine.WithProcess(func(int) engine.Process { return &echoProc{} }),
		engine.WithRounds(3),
	)
	if got := rep.(classCounter).ClassCount(); got != 4 {
		t.Fatalf("singleton fallback ended with %d classes, want one per slot", got)
	}
	concrete := engine.Concrete()
	if _, err := engine.Run(countingConfig(true, 6), engine.WithStateRep(concrete)); err != nil {
		t.Fatal(err)
	}
	if got := concrete.(classCounter).ClassCount(); got != 12 {
		t.Fatalf("Concrete ran a Cloner protocol as %d classes, want one per correct slot (12)", got)
	}
}

// TestCountingReceptionModes holds both state representations to the
// reference interpreter on a faulty execution (its poisoned round sends
// and receives member by member) and a clean one (weighted rounds, unless
// deliveries are recorded). The subtest d<i>-r<j> records deliveries
// (traffic and per-slot history hashes) when i is 1, and receives
// numerately when j is 1.
func TestCountingReceptionModes(t *testing.T) {
	adv := targetRounds{bad: 3, plan: map[int][]msg.TargetedSend{
		2: {{ToSlot: 8, Body: msg.Raw("poison")}},
	}}
	for d := 0; d < 2; d++ {
		for r := 0; r < 2; r++ {
			for _, faulty := range []bool{false, true} {
				t.Run(fmt.Sprintf("d%d-r%d-faulty%t", d, r, faulty), func(t *testing.T) {
					cfg := countingConfig(false, 6)
					cfg.RecordTraffic, cfg.RecordClasses, cfg.Params.Numerate = d == 1, d == 1, r == 1
					if faulty {
						cfg.Adversary = adv
					}
					holdToRefmodel(t, cfg)
				})
			}
		}
	}
}

// tallyProc broadcasts one round-tagged payload and keeps a hash of the
// last inbox it read, multiplicities included, so a member that misses
// one homonym's copy leaves its class until a clean round re-merges it.
// It decides its identifier once it has received round 3.
type tallyProc struct {
	id    hom.Identifier
	last  msg.StateHash
	ready bool
}

func (p *tallyProc) Init(ctx engine.Context) { p.id = ctx.ID }

func (p *tallyProc) Prepare(round int) []msg.Send {
	return []msg.Send{msg.Broadcast(msg.Raw(fmt.Sprintf("tally|%d", round)))}
}

func (p *tallyProc) Receive(round int, in *msg.Inbox) {
	h := msg.NewStateHash()
	for i := 0; i < in.Len(); i++ {
		h = h.Int(int(in.SenderAt(i))).Int(in.CountAt(i)).String(in.BodyAt(i).Key())
	}
	p.last, p.ready = h, p.ready || round >= 3
}

func (p *tallyProc) Decision() (hom.Value, bool)     { return hom.Value(p.id), p.ready }
func (p *tallyProc) CloneProcess() engine.Process    { cp := *p; return &cp }
func (p *tallyProc) StateFingerprint() msg.StateHash { return p.last.Int(int(p.id)).Bool(p.ready) }

// TestFaultWindowCostsOnlyItsRounds pins that the counting representation
// picks its routing round by round. A crash-recovery window (slot 8,
// rounds 2-3) or an esync delay window before GST (slot 8 to slot 9,
// rounds 2-3) has every member send on its own while it is live; once it
// has closed and the classes it split have re-merged, every later round's
// arena holds one entry per class send, not one per slot. The Result at
// n=4096 (512 under the race detector) is Concrete's. The reference
// interpreter, which materialises all n² deliveries of a round, holds
// both representations to the same scenario at n=256.
func TestFaultWindowCostsOnlyItsRounds(t *testing.T) {
	const l, rounds = 8, 8
	for _, tc := range []struct {
		name  string
		tm    engine.TimeModel
		sched *inject.Schedule
	}{
		{"crash", engine.Lockstep{}, &inject.Schedule{Crashes: []inject.Crash{{Slot: 8, Round: 2, Recover: 2}}}},
		{"delay", engine.EventuallySynchronous{Bound: 2},
			&inject.Schedule{Delays: []inject.Delay{{FromSlot: 8, ToSlot: 9, From: 2, Until: 3, By: 1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flood := func(n int) engine.Config {
				return engine.Config{
					Params:      hom.Params{N: n, L: l, T: 0, Synchrony: hom.PartiallySynchronous, Numerate: true},
					Assignment:  hom.RoundRobinAssignment(n, l),
					Inputs:      make([]hom.Value, n),
					NewProcess:  func(int) engine.Process { return &tallyProc{} },
					GST:         5,
					MaxRounds:   rounds,
					ExtraRounds: rounds,
					Faults:      tc.sched,
					TimeModel:   tc.tm,
				}
			}
			holdToRefmodel(t, flood(256))

			n := 4096
			if raceEnabled {
				n = 512 // a window round routes n² pairs, which the race detector slows tenfold
			}
			cfg := flood(n)
			want, err := engine.Run(cfg, engine.WithStateRep(engine.Concrete()))
			if err != nil {
				t.Fatal(err)
			}
			probe := &engine.ArenaProbe{}
			got, err := engine.Run(cfg, engine.WithStateRep(probe))
			if err != nil {
				t.Fatal(err)
			}
			if d := refmodel.Diff(got, want); d != "" {
				t.Fatalf("counting diverges from concrete: %s", d)
			}
			if got.Rounds != rounds || probe.Arena[1] < n-1 {
				t.Fatalf("ran %d rounds, round 2 stamped %d entries: want %d rounds, and a window round sent by every live member",
					got.Rounds, probe.Arena[1], rounds)
			}
			settled := 0 // the round after which the split classes were whole again
			for r := 2; r <= rounds && settled == 0; r++ {
				if probe.Classes[r-2] > l && probe.Classes[r-1] == l {
					settled = r
				}
			}
			if settled == 0 || settled > rounds-2 {
				t.Fatalf("classes per round %v: the window never split a class, or its classes never re-merged in time", probe.Classes)
			}
			for r := settled + 1; r <= rounds; r++ {
				if probe.Arena[r-1] != l {
					t.Errorf("round %d: the arena holds %d entries for %d class sends (classes per round %v)",
						r, probe.Arena[r-1], l, probe.Classes)
				}
			}
		})
	}
}

// fingerprintTally counts, per (round, identifier), the classes that
// stepped and the fingerprints the representation took of them.
type fingerprintTally struct {
	round           int
	stepped, hashed map[[2]int]int
}

// tallied wraps a protocol process for a fingerprintTally, keeping its
// Cloner and StateHasher.
type tallied struct {
	engine.Process
	id hom.Identifier
	t  *fingerprintTally
}

func (p *tallied) Init(ctx engine.Context) {
	p.id = ctx.ID
	p.Process.Init(ctx)
}

func (p *tallied) Receive(round int, in *msg.Inbox) {
	p.Process.Receive(round, in)
	p.t.round = round
	p.t.stepped[[2]int{round, int(p.id)}]++
}

func (p *tallied) CloneProcess() engine.Process {
	return &tallied{p.Process.(engine.Cloner).CloneProcess(), p.id, p.t}
}

func (p *tallied) StateFingerprint() msg.StateHash {
	p.t.hashed[[2]int{p.t.round, int(p.id)}]++
	return p.Process.(engine.StateHasher).StateFingerprint()
}

func (p *tallied) Release() {
	if r, ok := p.Process.(engine.Releaser); ok {
		r.Release()
	}
}

// TestCountingFingerprintsOnlyMergeableGroups pins that a merge pass
// fingerprints a class only when its identifier group holds two or more
// classes — the only groups a merge can happen in. In the Figure-5 run
// one identifier above the psync bound (n=16, l=13, t=3, one
// equivocating holder of each of identifiers 1-3, GST 9) every group
// holds one correct slot, so no fingerprint is ever taken. In the
// synchronous T(EIG) run at n=64, l=4 (each group starting as two
// (identifier, input) classes, one equivocator) a fingerprint is taken
// only of a group that stepped two or more classes that round. Both
// runs end exactly as under Concrete.
func TestCountingFingerprintsOnlyMergeableGroups(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    hom.Params
		gst  int
	}{
		{"psync-n16", hom.Params{N: 16, L: 13, T: 3, Synchrony: hom.PartiallySynchronous}, 9},
		{"sync-n64", hom.Params{N: 64, L: 4, T: 1, Synchrony: hom.Synchronous}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sel, err := core.Select(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			inputs := make([]hom.Value, tc.p.N)
			for s := range inputs {
				inputs[s] = hom.Value(s / tc.p.L % 2)
			}
			byz := make(adversary.OnePerIdentifier, tc.p.T)
			for i := range byz {
				byz[i] = hom.Identifier(i + 1)
			}
			run := func(rep engine.StateRep) (*engine.Result, *fingerprintTally) {
				tally := &fingerprintTally{stepped: map[[2]int]int{}, hashed: map[[2]int]int{}}
				res, err := engine.Run(
					engine.WithParams(tc.p),
					engine.WithAssignment(hom.RoundRobinAssignment(tc.p.N, tc.p.L)),
					engine.WithInputs(inputs...),
					engine.WithProcess(func(s int) engine.Process { return &tallied{Process: sel.NewProcess(s), t: tally} }),
					engine.WithAdversary(&adversary.Composite{Selector: byz, Behavior: adversary.Equivocate{Seed: 1}}),
					engine.WithGST(tc.gst),
					engine.WithRounds(sel.SuggestedRounds(tc.gst)),
					engine.WithStateRep(rep),
				)
				if err != nil {
					t.Fatal(err)
				}
				return res, tally
			}
			want, _ := run(engine.Concrete())
			got, tally := run(engine.Counting())
			if d := refmodel.Diff(got, want); d != "" || !got.AllDecided {
				t.Fatalf("counting diverges from concrete (%s), or did not decide", d)
			}
			calls := 0
			for k, c := range tally.hashed {
				calls += c
				if tally.stepped[k] < 2 {
					t.Errorf("round %d: identifier %d fingerprinted %d times with %d class(es) stepping", k[0], k[1], c, tally.stepped[k])
				}
			}
			if single := tc.p.N-tc.p.T == tc.p.L; single != (calls == 0) {
				t.Errorf("%d fingerprints taken; every group holding one correct slot: %v", calls, single)
			}
		})
	}
}
