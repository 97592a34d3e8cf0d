package engine_test

import (
	"slices"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/refmodel"
)

// holdToRefmodel fails the test unless cfg runs alike in the reference
// interpreter and on the engine under both state representations, and
// returns the Result.
func holdToRefmodel(t *testing.T, cfg engine.Config) *engine.Result {
	t.Helper()
	res, diff, err := refmodel.Hold(func() (engine.Config, error) { return cfg, nil })
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatal(diff)
	}
	return res
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
				cfg.RecordTraffic, cfg.RecordClasses, cfg.Invariants = record, record, true
				ref := holdToRefmodel(t, cfg)
				if st := ref.Stats; st.MessagesDropped == 0 || v.DrainRound > 0 && st.TimingHolds == 0 {
					t.Errorf("the drop mask or the delay never fired: %+v", st)
				}
				replayed := func(d msg.Delivered) bool {
					return d.Round == 2 && d.FromSlot == 6 && d.ToSlot == 10 && d.Msg.Key() == "id=2|raw|b|6|1"
				}
				if record && v.Name == "replay" && !slices.ContainsFunc(ref.Traffic, replayed) {
					t.Error("slot 10 was not replayed slot 6's round-1 broadcast in round 2")
				}
			})
		}
	}
}
