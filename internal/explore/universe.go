package explore

import (
	"fmt"
	"sort"
	"strings"

	"homonyms/internal/adversary"
	"homonyms/internal/fuzz"
	"homonyms/internal/hom"
)

// This file declares the explorer's choice universe: the finite menus
// of per-round adversary actions and drop shapes, the root choices
// (inputs, corrupt set, GST), and their rendering into the fuzzer's
// Scenario JSON. The universe is deliberately menu-shaped — every
// choice is an index into a deterministic list — so an execution is
// fully named by (root, per-round index vector), which is what makes
// search order, deduplication and the exploration digest reproducible.

// Byzantine action kinds. An action is what one corrupted slot does in
// one round.
const (
	aSilent     = iota // send nothing
	aBcast             // forge the protocol's payloads for one value, to all
	aSplit             // forge value v1 to slots < cut, v2 to the rest
	aCopy              // replay a correct slot's broadcasts, to all
	aCopySplit         // replay src1's broadcasts to slots < cut, src2's to the rest
	aMimic             // run a shadow correct process with input v1, to all
	aMimicSplit        // two shadow twins: input v1 fed by and sent to slots < cut, v2 the rest
)

// byzAction is one menu entry for a corrupted slot's round.
type byzAction struct {
	kind   int
	v1, v2 hom.Value // forged values (aBcast, aSplit)
	s1, s2 int       // copied source slots (aCopy, aCopySplit)
	cut    int       // split boundary: recipients < cut get the first arm
}

// slotRange returns [lo, hi) as a recipient list.
func slotRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for s := lo; s < hi; s++ {
		out = append(out, s)
	}
	return out
}

// steps renders the action into script steps for one round.
func (a byzAction) steps(round, slot, n int) []adversary.ScriptSend {
	switch a.kind {
	case aBcast:
		return []adversary.ScriptSend{{Round: round, Slot: slot, Value: a.v1}}
	case aSplit:
		return []adversary.ScriptSend{
			{Round: round, Slot: slot, Value: a.v1, To: slotRange(0, a.cut)},
			{Round: round, Slot: slot, Value: a.v2, To: slotRange(a.cut, n)},
		}
	case aCopy:
		return []adversary.ScriptSend{{Round: round, Slot: slot, Copy: true, Src: a.s1}}
	case aCopySplit:
		return []adversary.ScriptSend{
			{Round: round, Slot: slot, Copy: true, Src: a.s1, To: slotRange(0, a.cut)},
			{Round: round, Slot: slot, Copy: true, Src: a.s2, To: slotRange(a.cut, n)},
		}
	case aMimic:
		return []adversary.ScriptSend{{Round: round, Slot: slot, Mimic: true, Value: a.v1}}
	case aMimicSplit:
		return []adversary.ScriptSend{
			{Round: round, Slot: slot, Mimic: true, Value: a.v1, Feed: slotRange(0, a.cut), To: slotRange(0, a.cut)},
			{Round: round, Slot: slot, Mimic: true, Value: a.v2, Feed: slotRange(a.cut, n), To: slotRange(a.cut, n)},
		}
	}
	return nil // aSilent
}

// byzMenu builds the per-round action menu for one root's corrupt set:
// silence; forged broadcasts and two-way forged splits over the value
// domain; and copy/copy-split equivocation sourcing each correct slot
// (the covering-argument shape — well-formed current-round state under
// the Byzantine identifier). Copy actions depend on which slots are
// correct, which is why the menu is per-root.
func byzMenu(p hom.Params, corrupt []int) []byzAction {
	isBad := make([]bool, p.N)
	for _, s := range corrupt {
		isBad[s] = true
	}
	var correct []int
	for s := 0; s < p.N; s++ {
		if !isBad[s] {
			correct = append(correct, s)
		}
	}
	dom := p.EffectiveDomain()
	menu := []byzAction{{kind: aSilent}}
	for _, v := range dom {
		menu = append(menu, byzAction{kind: aBcast, v1: v})
	}
	for _, v1 := range dom {
		for _, v2 := range dom {
			if v1 == v2 {
				continue
			}
			for cut := 1; cut < p.N; cut++ {
				menu = append(menu, byzAction{kind: aSplit, v1: v1, v2: v2, cut: cut})
			}
		}
	}
	for _, src := range correct {
		menu = append(menu, byzAction{kind: aCopy, s1: src})
	}
	for _, s1 := range correct {
		for _, s2 := range correct {
			if s1 == s2 {
				continue
			}
			for cut := 1; cut < p.N; cut++ {
				menu = append(menu, byzAction{kind: aCopySplit, s1: s1, s2: s2, cut: cut})
			}
		}
	}
	for _, v := range dom {
		menu = append(menu, byzAction{kind: aMimic, v1: v})
	}
	for _, v1 := range dom {
		for _, v2 := range dom {
			if v1 == v2 {
				continue
			}
			for cut := 1; cut < p.N; cut++ {
				menu = append(menu, byzAction{kind: aMimicSplit, v1: v1, v2: v2, cut: cut})
			}
		}
	}
	return menu
}

// dropShape is one menu entry for a pre-GST round's suppression
// pattern: an explicit set of directed (from, to) edges.
type dropShape struct {
	label string
	pairs [][2]int
}

// edges renders the shape for one round.
func (ds dropShape) edges(round int) []adversary.DropEdge {
	out := make([]adversary.DropEdge, 0, len(ds.pairs))
	for _, pr := range ds.pairs {
		out = append(out, adversary.DropEdge{Round: round, From: pr[0], To: pr[1]})
	}
	return out
}

// dropMenu builds the per-round suppression menu: nothing; every
// prefix-cut bipartition (both crossing directions dropped); and every
// single-slot isolation (inbound, outbound, both). Shapes with
// identical edge sets are deduplicated, so for n = 2 the menu is
// exactly the four subsets of the two directed edges — fully general.
func dropMenu(n int) []dropShape {
	var shapes []dropShape
	seen := map[string]bool{}
	add := func(label string, pairs [][2]int) {
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		key := fmt.Sprint(pairs)
		if seen[key] {
			return
		}
		seen[key] = true
		shapes = append(shapes, dropShape{label: label, pairs: pairs})
	}
	add("none", nil)
	for cut := 1; cut < n; cut++ {
		var pairs [][2]int
		for a := 0; a < cut; a++ {
			for b := cut; b < n; b++ {
				pairs = append(pairs, [2]int{a, b}, [2]int{b, a})
			}
		}
		add(fmt.Sprintf("cut%d", cut), pairs)
	}
	for s := 0; s < n; s++ {
		var in, outp, both [][2]int
		for x := 0; x < n; x++ {
			if x == s {
				continue
			}
			in = append(in, [2]int{x, s})
			outp = append(outp, [2]int{s, x})
			both = append(both, [2]int{x, s}, [2]int{s, x})
		}
		add(fmt.Sprintf("in%d", s), in)
		add(fmt.Sprintf("out%d", s), outp)
		add(fmt.Sprintf("iso%d", s), both)
	}
	return shapes
}

// root is one root choice: the GST position, the corrupt set and the
// input vector. key is the group-canonical form used to deduplicate
// symmetric roots.
type root struct {
	gst     int
	corrupt []int
	inputs  []hom.Value
	key     string
}

// rootKey canonicalizes a root under within-group slot permutations:
// per identifier group, the sorted multiset of (corrupted?, input)
// member tuples, plus the GST.
func rootKey(p hom.Params, assign hom.Assignment, gst int, isBad []bool, inputs []hom.Value) string {
	var b strings.Builder
	fmt.Fprintf(&b, "g%d", gst)
	for id := 1; id <= p.L; id++ {
		var mem []string
		for s := 0; s < p.N; s++ {
			if int(assign[s]) != id {
				continue
			}
			if isBad[s] {
				mem = append(mem, "B")
			} else {
				mem = append(mem, fmt.Sprintf("c%d", inputs[s]))
			}
		}
		sort.Strings(mem)
		fmt.Fprintf(&b, "|%d:%s", id, strings.Join(mem, ","))
	}
	return b.String()
}

// combinations enumerates the k-subsets of {0..n-1} in lexicographic
// order.
func combinations(n, k int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	combo := make([]int, k)
	var rec func(start, i int)
	rec = func(start, i int) {
		if i == k {
			out = append(out, append([]int(nil), combo...))
			return
		}
		for s := start; s <= n-(k-i); s++ {
			combo[i] = s
			rec(s+1, i+1)
		}
	}
	rec(0, 0)
	return out
}

// inputVectors enumerates every input vector over the effective domain,
// with corrupted slots pinned to the first domain value (their inputs
// are ignored by the engine, so varying them only duplicates roots).
func inputVectors(p hom.Params, isBad []bool) [][]hom.Value {
	dom := p.EffectiveDomain()
	var out [][]hom.Value
	idx := make([]int, p.N)
	for {
		vec := make([]hom.Value, p.N)
		for s := 0; s < p.N; s++ {
			if isBad[s] {
				vec[s] = dom[0]
			} else {
				vec[s] = dom[idx[s]]
			}
		}
		out = append(out, vec)
		s := 0
		for s < p.N {
			if isBad[s] {
				s++
				continue
			}
			idx[s]++
			if idx[s] < len(dom) {
				break
			}
			idx[s] = 0
			s++
		}
		if s >= p.N {
			return out
		}
	}
}

// roots enumerates the deduplicated root choices in deterministic
// order: GST positions ascending, corrupt-set sizes 0..t (the scripted
// universe cannot emulate a correct process exactly, so smaller sets
// are not subsumed by larger ones), subsets lexicographic, input
// vectors odometer order; group-symmetric duplicates keep their first
// representative.
func (s *searcher) enumRoots() []root {
	var out []root
	seen := map[string]bool{}
	for _, gst := range s.gsts {
		for size := 0; size <= s.p.T; size++ {
			for _, corrupt := range combinations(s.p.N, size) {
				isBad := make([]bool, s.p.N)
				for _, c := range corrupt {
					isBad[c] = true
				}
				for _, inputs := range inputVectors(s.p, isBad) {
					key := rootKey(s.p, s.assign, gst, isBad, inputs)
					if seen[key] {
						continue
					}
					seen[key] = true
					out = append(out, root{gst: gst, corrupt: corrupt, inputs: inputs, key: key})
				}
			}
		}
	}
	return out
}

// roundChoice is one round's joint adversary choice: one action index
// per corrupted slot (menu order follows the sorted corrupt set) and
// one drop-shape index (always 0, "none", outside the pre-GST window of
// a partially synchronous cell).
type roundChoice struct {
	acts []int
	drop int
}

func choiceEqual(a, b roundChoice) bool {
	if a.drop != b.drop || len(a.acts) != len(b.acts) {
		return false
	}
	for i := range a.acts {
		if a.acts[i] != b.acts[i] {
			return false
		}
	}
	return true
}

// collapse removes trailing rounds identical to their predecessor: with
// Repeat/Span replay semantics, a run of equal trailing choices is one
// scripted round repeated, so the shorter script names the same
// execution.
func collapse(prefix []roundChoice) []roundChoice {
	out := prefix
	for len(out) >= 2 && choiceEqual(out[len(out)-1], out[len(out)-2]) {
		out = out[:len(out)-1]
	}
	return out
}

// roundChoices enumerates the joint choices for one round of one root,
// in deterministic order: the action odometer varies the first corrupt
// slot fastest, and each action combination fans out over the
// applicable drop shapes.
func (s *searcher) roundChoices(menu []byzAction, rt root, round int) []roundChoice {
	dropN := 1
	if s.p.Synchrony == hom.PartiallySynchronous && round < rt.gst {
		dropN = len(s.drops)
	}
	nb := len(rt.corrupt)
	var out []roundChoice
	acts := make([]int, nb)
	for {
		for d := 0; d < dropN; d++ {
			out = append(out, roundChoice{acts: append([]int(nil), acts...), drop: d})
		}
		if nb == 0 {
			return out
		}
		i := 0
		for i < nb {
			acts[i]++
			if acts[i] < len(menu) {
				break
			}
			acts[i] = 0
			i++
		}
		if i >= nb {
			return out
		}
	}
}

// scenario renders (root, prefix) into the fuzzer's replay format. With
// repeat set the script's last round extends past the scripted window
// (Span), which is how a finite prefix names an infinite-suffix
// adversary; maxRounds 0 selects the protocol's suggested budget.
func (s *searcher) scenario(menu []byzAction, rt root, prefix []roundChoice, maxRounds int, repeat bool) fuzz.Scenario {
	sc := fuzz.NewScenario(s.protoName, s.p)
	sc.GST, sc.MaxRounds = rt.gst, maxRounds
	sc.Selector = fuzz.SelectorSpec{Kind: "none"}
	sc.Behavior = fuzz.BehaviorSpec{Kind: "silent"}
	sc.Drops = fuzz.DropSpec{Kind: "none"}
	for i, v := range rt.inputs {
		sc.Inputs[i] = int(v)
	}
	if len(rt.corrupt) > 0 {
		sc.Selector = fuzz.SelectorSpec{Kind: "slots", Slots: append([]int(nil), rt.corrupt...)}
		var steps []adversary.ScriptSend
		for r, ch := range prefix {
			for ci, slot := range rt.corrupt {
				steps = append(steps, menu[ch.acts[ci]].steps(r+1, slot, s.p.N)...)
			}
		}
		if len(steps) > 0 {
			sc.Behavior = fuzz.BehaviorSpec{Kind: "script", Script: steps, Repeat: repeat, Span: len(prefix)}
		}
	}
	var dropEdges []adversary.DropEdge
	for r, ch := range prefix {
		if ch.drop > 0 {
			dropEdges = append(dropEdges, s.drops[ch.drop].edges(r+1)...)
		}
	}
	if len(dropEdges) > 0 {
		sc.Drops = fuzz.DropSpec{Kind: "script", Edges: dropEdges, Repeat: repeat, Span: len(prefix)}
	}
	return sc
}
