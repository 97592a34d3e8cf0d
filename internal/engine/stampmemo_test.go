package engine_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/psynchom"
)

// memoTap wraps a Figure-5 process for the stamp-memo differential. It
// forwards everything (the counting representation's Cloner/StateHasher
// extensions included) and counts the memos its process offers and the
// times it is forked; with strip set, Prepare hands the engine copies of
// the sends that carry no memo, so every stamp of the execution takes the
// key path — by construction of this test type, not by a switch in the
// engine.
type memoTap struct {
	inner           engine.Process
	strip           bool
	offered, clones *int64
}

func (p *memoTap) Init(ctx engine.Context)          { p.inner.Init(ctx) }
func (p *memoTap) Receive(round int, in *msg.Inbox) { p.inner.Receive(round, in) }
func (p *memoTap) Decision() (hom.Value, bool)      { return p.inner.Decision() }
func (p *memoTap) Release()                         { p.inner.(engine.Releaser).Release() }
func (p *memoTap) StateFingerprint() msg.StateHash {
	return p.inner.(engine.StateHasher).StateFingerprint()
}
func (p *memoTap) wrap(inner engine.Process) *memoTap { cp := *p; cp.inner = inner; return &cp }
func (p *memoTap) CloneProcess() engine.Process {
	*p.clones++
	return p.wrap(p.inner.(engine.Cloner).CloneProcess())
}

func (p *memoTap) Prepare(round int) []msg.Send {
	sends := p.inner.Prepare(round)
	for _, s := range sends {
		if s.Memo != nil {
			*p.offered++
		}
	}
	if !p.strip {
		return sends
	}
	plain := make([]msg.Send, len(sends))
	for i, s := range sends {
		plain[i] = msg.Send{Kind: s.Kind, To: s.To, Body: s.Body}
	}
	return plain
}

// memoRun is everything the differential compares of one execution, plus
// the tap's counts.
type memoRun struct {
	keys            []string // InternProbe.Keys: KeyID assignment order
	traffic         []string // every delivery, with its KeyID
	res             *engine.Result
	offered, clones int64
}

// runFigure5 runs the Figure-5 algorithm with one equivocating holder of
// identifier 1 (round-robin assignment, so a homonym group whenever
// n > l) and records the execution; nil after reporting a failure.
func runFigure5(t *testing.T, p hom.Params, seed int64, rep engine.StateRep, strip bool) *memoRun {
	t.Helper()
	factory, err := psynchom.New(p, psynchom.Options{})
	if err != nil {
		t.Error(err)
		return nil
	}
	run := new(memoRun)
	tap := &memoTap{strip: strip, offered: &run.offered, clones: &run.clones}
	inputs := make([]hom.Value, p.N)
	for s := range inputs {
		// Homonyms share an input (so the counting representation starts
		// them as one class); the identifiers disagree.
		inputs[s] = hom.Value((int64(s%p.L) + seed) % 2)
	}
	const gst = 5
	probe := &engine.InternProbe{StateRep: rep}
	run.res, err = engine.Run(
		engine.WithParams(p),
		engine.WithAssignment(hom.RoundRobinAssignment(p.N, p.L)),
		engine.WithInputs(inputs...),
		engine.WithProcess(func(slot int) engine.Process { return tap.wrap(factory(slot)) }),
		engine.WithAdversary(&adversary.Composite{
			Selector: adversary.OnePerIdentifier{1},
			Behavior: adversary.Equivocate{Seed: seed},
			Drops:    adversary.RandomDrops{Seed: seed, Prob: 0.2},
		}),
		engine.WithGST(gst),
		engine.WithRounds(psynchom.SuggestedMaxRounds(p, gst)),
		engine.WithTrafficRecording(),
		engine.WithInvariants(),
		engine.WithStateRep(probe),
	)
	if err != nil {
		t.Error(err)
		return nil
	}
	run.keys = probe.Keys
	for _, d := range run.res.Traffic {
		run.traffic = append(run.traffic, fmt.Sprintf("r%d %d->%d #%d %s", d.Round, d.FromSlot, d.ToSlot, d.Msg.KeyID(), d.Msg.Key()))
	}
	run.res.Traffic = nil // compared through run.traffic; payloads hold pointers
	return run
}

// TestStampMemoMatchesKeyPath is the stamp-memo differential: the same
// execution with and without the senders' memos interns the same keys in
// the same order, delivers the same traffic under the same KeyIDs and
// ends in the same Result. The executions are the ones where a memo
// could go wrong: an equivocator inside a homonym group forwarding
// correct slots' standing payloads under its own identifier, pre-GST
// drops, back-to-back executions that hand the broadcast layer's pooled
// tables (and the memos in them) from one run to the next, and a counting
// run whose classes fork mid-execution (a clone re-sends its original's
// payloads from a table of its own), and the two runs executing at once,
// drawing on the same pools as the exec pool's workers do.
func TestStampMemoMatchesKeyPath(t *testing.T) {
	homonyms := hom.Params{N: 8, L: 6, T: 1, Synchrony: hom.PartiallySynchronous}
	for _, tc := range []struct {
		name       string
		rep        func() engine.StateRep
		fork       bool
		concurrent bool
	}{
		{"concrete", engine.Concrete, false, false},
		{"concurrent", engine.Counting, true, true},
		{"counting", engine.Counting, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Seeds alternate, so each run's tables come out of the pool
			// the previous, different run returned them to.
			for _, seed := range []int64{1, 2, 1} {
				var memo, plain *memoRun
				if tc.concurrent {
					var wg sync.WaitGroup
					wg.Add(2)
					go func() { defer wg.Done(); memo = runFigure5(t, homonyms, seed, tc.rep(), false) }()
					go func() { defer wg.Done(); plain = runFigure5(t, homonyms, seed, tc.rep(), true) }()
					wg.Wait()
				} else {
					memo = runFigure5(t, homonyms, seed, tc.rep(), false)
					plain = runFigure5(t, homonyms, seed, tc.rep(), true)
				}
				if memo == nil || plain == nil {
					t.FailNow()
				}
				if n := memo.offered; n == 0 || n != plain.offered {
					t.Fatalf("seed %d: processes offered %d memos (%d in the stripped run): the differential compares nothing", seed, n, plain.offered)
				}
				if tc.fork && memo.clones == 0 {
					t.Fatalf("seed %d: no class forked: the run does not cover clones", seed)
				}
				if !memo.res.AllDecided {
					t.Fatalf("seed %d: run did not decide", seed)
				}
				if !reflect.DeepEqual(memo.keys, plain.keys) {
					t.Errorf("seed %d: KeyID assignment differs with memos (%d keys) and without (%d)", seed, len(memo.keys), len(plain.keys))
				}
				if !reflect.DeepEqual(memo.traffic, plain.traffic) {
					t.Errorf("seed %d: traffic records differ (%d vs %d deliveries)", seed, len(memo.traffic), len(plain.traffic))
				}
				if !reflect.DeepEqual(memo.res, plain.res) {
					t.Errorf("seed %d: results differ:\n with memos %+v\n without    %+v", seed, memo.res, plain.res)
				}
			}
		})
	}
}

// TestFigure5SparesStandingEchoes runs the Figure-5 algorithm one
// identifier above its bound (n=16, l=13, t=3, GST 9, three equivocating
// holders of identifiers 1-3): from round 10 on, the rounds after the
// first weighted one, at least 80% of the correct sends are standing
// echoes the router accounts without stamping, each of which paranoid
// mode re-derives through the key path. The run, and the same run under
// the counting representation, must end exactly as the same run
// recording its traffic, which never spares: recording forces every send
// through the stamped path.
func TestFigure5SparesStandingEchoes(t *testing.T) {
	const n, l, gst = 16, 13, 9
	p := hom.Params{N: n, L: l, T: 3, Synchrony: hom.PartiallySynchronous}
	factory, err := psynchom.New(p, psynchom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]hom.Value, n)
	for s := range inputs {
		inputs[s] = hom.Value(s % 2)
	}
	run := func(rep engine.StateRep, opts ...engine.Option) *engine.Result {
		res, err := engine.Run(append([]engine.Option{
			engine.WithParams(p),
			engine.WithAssignment(hom.RoundRobinAssignment(n, l)),
			engine.WithInputs(inputs...),
			engine.WithProcess(factory),
			engine.WithAdversary(&adversary.Composite{Selector: adversary.Slots{0, 1, 2}, Behavior: adversary.Equivocate{Seed: 1}}),
			engine.WithGST(gst),
			engine.WithRounds(psynchom.SuggestedMaxRounds(p, gst)),
			engine.WithStateRep(rep),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	probe := &engine.SpareProbe{}
	spared := run(probe, engine.WithInvariants())
	recorded := run(engine.Concrete(), engine.WithTrafficRecording())
	if !spared.AllDecided {
		t.Fatal("the run did not decide")
	}
	sent, sparedSends := 0, 0
	for r := gst + 1; r <= len(probe.Sent); r++ {
		sent += probe.Sent[r-1]
		sparedSends += probe.Spared[r-1]
	}
	if sent == 0 || 5*sparedSends < 4*sent {
		t.Errorf("rounds %d-%d spared %d of %d correct sends, want at least 80%%", gst+1, len(probe.Sent), sparedSends, sent)
	}
	for r := 1; r <= gst; r++ {
		if probe.Spared[r-1] != 0 {
			t.Errorf("round %d, before the second weighted round, spared %d sends", r, probe.Spared[r-1])
		}
	}
	recorded.Traffic = nil
	if !reflect.DeepEqual(spared, recorded) {
		t.Errorf("results differ:\n sparing   %+v\n recording %+v", spared, recorded)
	}
	if counted := run(engine.Counting(), engine.WithInvariants()); !reflect.DeepEqual(counted, recorded) {
		t.Errorf("results differ:\n counting  %+v\n recording %+v", counted, recorded)
	}
}
