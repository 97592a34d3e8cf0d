package attacks_test

import (
	"fmt"
	"testing"

	"homonyms/internal/attacks"
	"homonyms/internal/classical"
	"homonyms/internal/hom"
	"homonyms/internal/psynchom"
	"homonyms/internal/psyncnum"
	"homonyms/internal/synchom"
)

// TestConstructionReportsPinned pins every field of the four reports
// built from hand-assembled executions — Figure 1's covering system,
// Figure 4's partition (α, β and γ), Theorem 19's clone collapse and
// Lemma 17's mirror twin — on the cells cmd/attacks and the solvability
// matrix run, so a change to how those executions are assembled must
// reproduce them exactly: the same decisions in the same rounds, the same
// statistics and the same violation texts.
func TestConstructionReportsPinned(t *testing.T) {
	covering := func(n int) func() (string, error) {
		return func() (string, error) {
			alg, err := classical.NewEIGUnchecked(3, 1, nil)
			if err != nil {
				return "", err
			}
			p := hom.Params{N: n, L: 3, T: 1, Synchrony: hom.Synchronous}
			factory, err := synchom.New(alg, p)
			if err != nil {
				return "", err
			}
			rep, err := attacks.Covering(p, factory, synchom.Rounds(alg)+6)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", *rep), nil
		}
	}
	partition := func() (string, error) {
		p := partitionParams(5, 4, 1)
		rep, err := attacks.Partition(p, psynchom.New(p, psynchom.Options{}), 12*hom.RoundsPerPhase)
		if err != nil {
			return "", err
		}
		res := rep.Result
		return fmt.Sprintf("X=%v Y=%v Byz=%v alpha=%d beta=%d | rounds=%d corrupted=%v decisions=%v decidedAt=%v allDecided=%v stats=%+v | %s",
			rep.XSlots, rep.YSlots, rep.ByzSlots, rep.AlphaDecidedRound, rep.BetaDecidedRound,
			res.Rounds, res.Corrupted, res.Decisions, res.DecidedAt, res.AllDecided, res.Stats, rep.Verdict), nil
	}
	clones := func() (string, error) {
		alg, err := classical.NewEIG(4, 1, nil)
		if err != nil {
			return "", err
		}
		p := hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous, RestrictedByzantine: true}
		factory, err := synchom.New(alg, p)
		if err != nil {
			return "", err
		}
		rep, err := attacks.CloneCollapse(p, factory, hom.Assignment{1, 1, 1, 2, 3, 4, 4},
			[]hom.Value{1, 1, 1, 0, 1, 0, 0}, 6, 3*synchom.Rounds(alg))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v", *rep), nil
	}
	mirror := func() (string, error) {
		p := hom.Params{N: 8, L: 2, T: 2, Synchrony: hom.Synchronous, Numerate: true, RestrictedByzantine: true}
		rep, err := attacks.Mirror(p, psyncnum.New(p), hom.RoundRobinAssignment(8, 2),
			[]hom.Value{0, 0, 0, 0, 1, 1, 1, 1}, 2, 0, 1, 12*hom.RoundsPerPhase)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v", *rep), nil
	}
	for _, tc := range []struct {
		name string
		run  func() (string, error)
		want string
	}{
		{"covering/n4", covering(4),
			"{Rounds:8 Arc0:[0 1 2] Arc1:[5 6 7] ArcMix:[7 0 1] Decisions:[0 0 0 0 1 1 1 0] Violations:[validity: arc1 (all inputs 1): slot 7 decided 0, validity demands 1]}"},
		{"covering/n5", covering(5),
			"{Rounds:8 Arc0:[0 1 2 3] Arc1:[6 7 8 9] ArcMix:[9 0 1 2] Decisions:[0 0 0 0 0 1 1 1 1 0] Violations:[validity: arc1 (all inputs 1): slot 9 decided 0, validity demands 1]}"},
		{"partition/n5", partition,
			"X=[1 2] Y=[3 4] Byz=[0] alpha=24 beta=16 | rounds=24 corrupted=[0] decisions=[-1 0 0 1 1] decidedAt=[0 23 24 15 16] allDecided=true stats={MessagesSent:6894 MessagesDelivered:4930 MessagesDropped:1964 PayloadBytes:110530 RestrictedViolations:0 FaultOmissions:0 TimingHolds:0 Retransmits:0} | violated: agreement: slot 1 decided 0 but slot 3 decided 1"},
		{"clones/n7", clones,
			"{Rounds:24 CloneSlots:[0 1 2] DivergedAtRound:0 Detail:}"},
		{"mirror/n8", mirror,
			"{FlippedSlot:2 TwinSlot:0 DecisionsC:map[3:1 4:1 5:1 6:1 7:1] DecisionsCPrime:map[3:1 4:1 5:1 6:1 7:1] Indistinguishable:true Detail:}"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("report changed:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}
