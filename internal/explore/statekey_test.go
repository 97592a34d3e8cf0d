package explore

import (
	"slices"
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/fuzz"
	"homonyms/internal/hom"
)

// cellSearcher builds the searcher of one curated cell.
func cellSearcher(t *testing.T, name string) *searcher {
	t.Helper()
	for _, c := range Cells() {
		if c.Name == name {
			s, err := newSearcher(c.Protocol, c.Params, c.Options)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	t.Fatalf("no cell %s", name)
	return nil
}

// evalWindow runs one window prefix as the search evaluates it.
func evalWindow(t *testing.T, s *searcher, menu []byzAction, rt root, prefix []roundChoice) *engine.Result {
	t.Helper()
	res, err := runScenario(s.scenario(menu, rt, prefix, len(prefix), false))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// menuIndex finds the first action of a kind.
func menuIndex(t *testing.T, menu []byzAction, kind int) int {
	t.Helper()
	i := slices.IndexFunc(menu, func(a byzAction) bool { return a.kind == kind })
	if i < 0 {
		t.Fatalf("no action of kind %d", kind)
	}
	return i
}

// TestMimicBehindDropKeepsShadow: a mimic step whose every send a
// pre-GST out-drop suppresses leaves the correct slots exactly as
// silence does, but it started a shadow whose next round differs. The
// two prefixes must get different keys; a key over the correct slots
// alone, or over their delivered histories, merged them.
func TestMimicBehindDropKeepsShadow(t *testing.T) {
	s := cellSearcher(t, "G")
	rt := root{gst: s.gsts[0], corrupt: []int{0}, inputs: make([]hom.Value, s.p.N)}
	menu := byzMenu(s.p, rt.corrupt)
	out0 := slices.IndexFunc(s.drops, func(d dropShape) bool { return d.label == "out0" })
	mimic := evalWindow(t, s, menu, rt, []roundChoice{{acts: []int{menuIndex(t, menu, aMimic)}, drop: out0}})
	silent := evalWindow(t, s, menu, rt, []roundChoice{{acts: []int{menuIndex(t, menu, aSilent)}, drop: out0}})
	correct := func(r *engine.Result) []engine.ClassState {
		return slices.DeleteFunc(slices.Clone(r.Classes), func(c engine.ClassState) bool { return c.ID == 0 })
	}
	if !slices.Equal(correct(mimic), correct(silent)) {
		t.Fatalf("fixture: the correct classes differ\n%v\n%v", mimic.Classes, silent.Classes)
	}
	if stateKey(mimic) == stateKey(silent) {
		t.Fatalf("mimic behind an out-drop and silence share a key: %v", mimic.Classes)
	}
}

// symmetric reports whether a round choice treats every slot of an
// identifier group alike: no drop, and an action that reaches, copies and
// feeds from no slot in particular.
func symmetric(menu []byzAction, ch roundChoice) bool {
	if ch.drop != 0 {
		return false
	}
	for _, a := range ch.acts {
		if k := menu[a].kind; k != aSilent && k != aBcast && k != aMimic {
			return false
		}
	}
	return true
}

// TestMergedPrefixesAgreeUnderSuffix samples the one-round prefixes the
// state key merges and runs each pair on under the same second round.
// In cell A every identifier has one slot, so a merge claims equal
// states and every second-round choice applies; in B and G a merge may
// join states equal only up to a within-group permutation, so only the
// choices that treat a group's slots alike do. Both runs of a pair must
// reach equal keys, and the same fuzz.Run class when the second round
// repeats to the full horizon.
func TestMergedPrefixesAgreeUnderSuffix(t *testing.T) {
	const pairsPerCell = 24
	for _, name := range []string{"A", "B", "G"} {
		s := cellSearcher(t, name)
		everyChoice := s.p.L == s.p.N
		pairs, suffixes := 0, 0
		for _, rt := range s.enumRoots() {
			if pairs == pairsPerCell {
				break
			}
			menu := byzMenu(s.p, rt.corrupt)
			first := map[uint64][]roundChoice{}
			var merged [][2][]roundChoice
			for _, ch := range s.roundChoices(menu, rt, 1) {
				prefix := []roundChoice{ch}
				key := stateKey(evalWindow(t, s, menu, rt, prefix))
				if at, ok := first[key]; !ok {
					first[key] = prefix
				} else if len(merged) < 2 {
					merged = append(merged, [2][]roundChoice{at, prefix})
				}
			}
			for _, pair := range merged {
				if pairs == pairsPerCell {
					break
				}
				pairs++
				for _, next := range s.roundChoices(menu, rt, 2) {
					if !everyChoice && !symmetric(menu, next) {
						continue
					}
					suffixes++
					a, b := append(slices.Clone(pair[0]), next), append(slices.Clone(pair[1]), next)
					if stateKey(evalWindow(t, s, menu, rt, a)) != stateKey(evalWindow(t, s, menu, rt, b)) {
						t.Fatalf("cell %s root %s: merged prefixes %v and %v part under %v", name, rt.key, pair[0], pair[1], next)
					}
					oa := fuzz.Run(s.scenario(menu, rt, a, s.maxRounds, true), fuzz.Options{})
					ob := fuzz.Run(s.scenario(menu, rt, b, s.maxRounds, true), fuzz.Options{})
					if oa.Class != ob.Class {
						t.Fatalf("cell %s root %s: merged prefixes %v and %v classify %s and %s under %v",
							name, rt.key, pair[0], pair[1], oa.Class, ob.Class, next)
					}
				}
			}
		}
		if pairs == 0 || suffixes == 0 {
			t.Fatalf("cell %s: %d merged pairs, %d suffixes checked; want some", name, pairs, suffixes)
		}
		t.Logf("cell %s: %d merged pairs under %d suffixes", name, pairs, suffixes)
	}
}
