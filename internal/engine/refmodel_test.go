package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/refmodel"
)

// observable renders everything a Result reports, traffic by content.
func observable(r *engine.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v|%v|%v|%v|%d|%d|%v|%q|%+v|%v", r.Corrupted, r.Faulted, r.Decisions, r.DecidedAt,
		r.Rounds, r.GST, r.AllDecided, r.Stopped, r.Stats, r.SlotHashes)
	for _, d := range r.Traffic {
		fmt.Fprintf(&b, "|%d:%d>%d:%s", d.Round, d.FromSlot, d.ToSlot, d.Msg.Key())
	}
	return b.String()
}

// holdToRefmodel runs cfg in the reference interpreter and on the engine
// under both state representations (plus extra options), and fails on
// the first Result that differs. It returns the reference Result.
func holdToRefmodel(t *testing.T, cfg engine.Config, extra ...engine.Option) *engine.Result {
	t.Helper()
	want, err := refmodel.Run(cfg)
	if err != nil {
		t.Fatalf("refmodel: %v", err)
	}
	for _, rep := range []engine.StateRep{engine.Concrete(), engine.Counting()} {
		got, err := engine.Run(append(append([]engine.Option{cfg}, extra...), engine.WithStateRep(rep))...)
		if err != nil {
			t.Fatalf("%s: %v", rep.Describe(), err)
		}
		if g, w := observable(got), observable(want); g != w {
			t.Fatalf("%s diverges from refmodel:\n got:  %.2000s\n want: %.2000s", rep.Describe(), g, w)
		}
	}
	return want
}

// TestClassifierPerRecipientModeDisablesSharing holds group-shared
// reception to the per-recipient reference: the reference interpreter
// fills every inbox on its own, so in identifier-symmetric rounds —
// where the engine fills one shared inbox per identifier group — every
// slot must still read exactly the inboxes the reference hands it (each
// decides a hash of them), innumerate and numerate.
func TestClassifierPerRecipientModeDisablesSharing(t *testing.T) {
	const n, l = 12, 4
	for _, numerate := range []bool{false, true} {
		holdToRefmodel(t, engine.Config{
			Params:     hom.Params{N: n, L: l, T: 0, Synchrony: hom.Synchronous, Numerate: numerate},
			Assignment: hom.RoundRobinAssignment(n, l),
			Inputs:     make([]hom.Value, n),
			NewProcess: func(s int) engine.Process { return &rowSender{slot: s, l: l, decideAt: 3} },
			MaxRounds:  3,
		})
	}
}

// rowSender sends engine.RowTraffic. It folds every inbox it reads into
// a hash and decides the hash in round decideAt, so a slot handed a
// wrong inbox decides differently.
type rowSender struct {
	slot, l, decideAt int
	seen              msg.StateHash
	round             int
}

func (p *rowSender) Init(engine.Context) { p.seen = msg.NewStateHash() }

func (p *rowSender) Prepare(round int) []msg.Send { return engine.RowTraffic(round, p.slot, p.l) }

func (p *rowSender) Receive(round int, in *msg.Inbox) {
	p.round = round
	for i := 0; i < in.Len(); i++ {
		p.seen = p.seen.Int(int(in.SenderAt(i))).Int(in.CountAt(i)).String(in.MessageAt(i).Key())
	}
}

func (p *rowSender) Decision() (hom.Value, bool) {
	return hom.Value(uint64(p.seen) >> 44), p.round >= p.decideAt
}

// TestRowRoutingMatchesPerPair holds the row stage — a broadcast is one
// row entry per identifier group, a recipient's candidate batch its
// group's row followed by its own tail — to per-pair delivery (the
// reference interpreter), under everything that can make two members of
// a group differ or close the rows for a round. Over eight rounds at
// n=24, l=5 (groups of four and five) mixing ToAll, ToIdentifier (held
// and unheld identifiers), Byzantine-targeted sends with equal and
// unequal keys, a replay, a delay held and drained after the hold window
// closed, a duplication, pre-GST drops and a visibility restriction, the
// engine must hand every slot the reference's inboxes (each decides a
// hash of them) and match its statistics and, when recorded, its
// traffic — with the paranoid row-order and class-equality checks on.
// (TestRowRoutingKeepsRowsOpen pins that these rounds do route by row.)
func TestRowRoutingMatchesPerPair(t *testing.T) {
	for _, v := range engine.RowVariants() {
		for _, record := range []bool{false, true} {
			t.Run(v.Name+"/record="+map[bool]string{false: "off", true: "on"}[record], func(t *testing.T) {
				cfg := engine.RowConfig(v)
				cfg.NewProcess = func(s int) engine.Process {
					return &rowSender{slot: s, l: cfg.Params.L, decideAt: engine.RowRounds}
				}
				cfg.RecordTraffic, cfg.FrontierHash, cfg.Invariants = record, record, true
				ref := holdToRefmodel(t, cfg)
				if st := ref.Stats; st.MessagesDropped == 0 || v.DrainRound > 0 && st.TimingHolds == 0 {
					t.Errorf("the drop mask or the delay never fired: %+v", st)
				}
				if record && v.Name == "replay" && !strings.Contains(observable(ref), "|2:6>10:id=2|raw|b|6|1") {
					t.Error("slot 10 was not replayed slot 6's round-1 broadcast in round 2")
				}
			})
		}
	}
}
