package classical

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// refEIGState is the reference EIG state: the information-gathering tree
// as a map from packed label to value, keyed by sorting its labels and
// resolved with a map of counts per node. It is the oracle
// TestEIGMatchesMapReference holds eigState's label-sorted slice to.
type refEIGState struct {
	id      hom.Identifier
	input   hom.Value
	tree    map[Label]hom.Value
	decided hom.Value
}

func refInit(e *EIG, id hom.Identifier, v hom.Value) *refEIGState {
	return &refEIGState{id: id, input: e.clampValue(v), tree: map[Label]hom.Value{}, decided: hom.NoValue}
}

func refKey(s *refEIGState) string {
	labels := make([]Label, 0, len(s.tree))
	for lbl := range s.tree {
		labels = append(labels, lbl)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	var b strings.Builder
	b.WriteString("eigstate|")
	b.WriteString(strconv.Itoa(int(s.id)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(s.input)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(s.decided)))
	for _, lbl := range labels {
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(uint64(lbl), 10))
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(int(s.tree[lbl])))
	}
	return b.String()
}

func refMessage(e *EIG, s *refEIGState, round int) msg.Payload {
	if round > e.rounds {
		return nil
	}
	if round == 1 {
		return NewEIGPayload(0, []EIGEntry{{Label: RootLabel, Val: s.input}})
	}
	var entries []EIGEntry
	for lbl, v := range s.tree {
		if e.labelLevel(lbl) != round-1 || e.labelContains(lbl, s.id) {
			continue
		}
		entries = append(entries, EIGEntry{Label: lbl, Val: v})
	}
	return NewEIGPayload(round-1, entries)
}

func refTransition(e *EIG, s *refEIGState, round int, received []msg.Message) *refEIGState {
	if round > e.rounds {
		return s
	}
	next := &refEIGState{id: s.id, input: s.input, tree: make(map[Label]hom.Value, len(s.tree)), decided: s.decided}
	for lbl, v := range s.tree {
		next.tree[lbl] = v
	}
	for _, m := range received {
		p, ok := m.Body.(*EIGPayload)
		if !ok || p.Level != round-1 {
			continue
		}
		for _, en := range p.Entries {
			if !e.wellFormedLabel(en.Label, round-1, m.ID) {
				continue
			}
			next.tree[e.extendLabel(en.Label, m.ID)] = e.clampValue(en.Val)
		}
	}
	if round == e.rounds && next.decided == hom.NoValue {
		next.decided = refResolve(e, next.tree, RootLabel, 0)
	}
	return next
}

func refResolve(e *EIG, tree map[Label]hom.Value, label Label, level int) hom.Value {
	if level == e.rounds {
		if v, ok := tree[label]; ok {
			return v
		}
		return e.defaultValue
	}
	counts := make(map[hom.Value]int, len(e.domain))
	children := 0
	for j := 1; j <= e.l; j++ {
		id := hom.Identifier(j)
		if e.labelContains(label, id) {
			continue
		}
		children++
		counts[refResolve(e, tree, e.extendLabel(label, id), level+1)]++
	}
	values := make([]hom.Value, 0, len(counts))
	for v := range counts {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, v := range values {
		if 2*counts[v] > children {
			return v
		}
	}
	return e.defaultValue
}

// treeOf builds the label-sorted tree holding m's entries.
func treeOf(m map[Label]hom.Value) []EIGEntry {
	tree := make([]EIGEntry, 0, len(m))
	for lbl, v := range m {
		tree = append(tree, EIGEntry{Label: lbl, Val: v})
	}
	sort.Slice(tree, func(i, j int) bool { return tree[i].Label < tree[j].Label })
	return tree
}

// rekey re-derives a state's key from its tree as it is now: a tree
// written after its state was frozen no longer matches the cached key.
func rekey(e *EIG, s State) string {
	st := s.(*eigState)
	return e.freezeState(&eigState{id: st.id, input: st.input, tree: st.tree, decided: st.decided}).key
}

// eigGen draws the received sets TestEIGMatchesMapReference feeds both
// trees: mostly complete or partial frontiers of well-formed labels, with
// duplicate senders, duplicate labels inside one payload, unsorted
// entries, out-of-domain values, wrong levels, foreign bodies and
// malformed labels (repeated identifiers, the sender's own identifier,
// residue bits above the level, out-of-range identifiers) mixed in.
type eigGen struct {
	e   *EIG
	rng *rand.Rand
}

// paths returns every well-formed level-`level` label avoiding sender.
func (g eigGen) paths(level int, sender hom.Identifier) []Label {
	out := []Label{RootLabel}
	for k := 0; k < level; k++ {
		var grown []Label
		for _, lbl := range out {
			for j := 1; j <= g.e.l; j++ {
				id := hom.Identifier(j)
				if id == sender || g.e.labelContains(lbl, id) {
					continue
				}
				grown = append(grown, g.e.extendLabel(lbl, id))
			}
		}
		out = grown
	}
	return out
}

func (g eigGen) value() hom.Value {
	switch g.rng.Intn(10) {
	case 0:
		return hom.Value(g.rng.Intn(20) - 2) // often out of the domain
	default:
		return g.e.domain[g.rng.Intn(len(g.e.domain))]
	}
}

func (g eigGen) malformed(level int, sender hom.Identifier) Label {
	e, rng := g.e, g.rng
	switch rng.Intn(5) {
	case 0: // a repeated identifier
		id := hom.Identifier(1 + rng.Intn(e.l))
		return e.LabelFromPath(id, id)
	case 1: // the sender's own identifier
		return e.extendLabel(e.LabelFromPath(hom.Identifier(1+rng.Intn(e.l))), sender)
	case 2: // a well-formed label one level too deep or too shallow
		if ps := g.paths(max(level+rng.Intn(3)-1, 0), sender); len(ps) > 0 {
			return ps[rng.Intn(len(ps))]
		}
		return RootLabel
	case 3: // residue above the level's chunks
		return Label(1)<<(63-uint(rng.Intn(4))) | Label(rng.Intn(e.l)+1)
	default: // raw bits
		return Label(rng.Uint64())
	}
}

func (g eigGen) received(round int) []msg.Message {
	e, rng := g.e, g.rng
	level := round - 1
	var out []msg.Message
	for n := rng.Intn(e.l + 3); n > 0; n-- {
		sender := hom.Identifier(rng.Intn(e.l + 2)) // 0 and l+1 are out of range
		if rng.Intn(8) == 0 {
			out = append(out, msg.Message{ID: sender, Body: msg.Raw("x")})
			continue
		}
		pl := level
		if rng.Intn(8) == 0 {
			pl = level + rng.Intn(3) - 1
		}
		var entries []EIGEntry
		ps := g.paths(max(level, 0), sender)
		if rng.Intn(2) == 0 {
			for _, lbl := range ps {
				entries = append(entries, EIGEntry{Label: lbl, Val: g.value()})
			}
		} else if len(ps) > 0 {
			for k := rng.Intn(len(ps) + 1); k > 0; k-- {
				entries = append(entries, EIGEntry{Label: ps[rng.Intn(len(ps))], Val: g.value()})
			}
		}
		for k := rng.Intn(3); k > 0; k-- {
			entries = append(entries, EIGEntry{Label: g.malformed(level, sender), Val: g.value()})
		}
		if len(entries) > 0 && rng.Intn(3) == 0 { // a duplicate label with its own value
			dup := entries[rng.Intn(len(entries))]
			entries = append(entries, EIGEntry{Label: dup.Label, Val: g.value()})
		}
		var body msg.Payload
		if rng.Intn(4) == 0 { // a hand-built payload: entries in arrival order
			rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
			body = &EIGPayload{Level: pl, Entries: entries}
		} else {
			body = NewEIGPayload(pl, entries)
		}
		out = append(out, msg.Message{ID: sender, Body: body})
	}
	return out
}

func TestEIGMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	domains := [][]hom.Value{nil, {3, 0, 7}, {5, 2}, {0, 1, 2, 3}}
	for trial := 0; trial < 300; trial++ {
		l := 2 + trial%8
		var e *EIG
		var err error
		if maxT := (l - 1) / 3; maxT >= 1 && trial%2 == 0 {
			e, err = NewEIG(l, 1+rng.Intn(maxT), domains[rng.Intn(len(domains))])
		} else {
			e, err = NewEIGUnchecked(l, rng.Intn(min(l, 4)), domains[rng.Intn(len(domains))])
		}
		if err != nil {
			t.Fatal(err)
		}
		g := eigGen{e: e, rng: rng}
		id := hom.Identifier(1 + rng.Intn(l))
		input := g.value()
		s, ref := e.Init(id, input), refInit(e, id, input)
		for round := 1; round <= e.rounds+1; round++ {
			for again := true; again; again = rng.Intn(4) == 0 { // δ twice for one round now and then
				received := g.received(round)
				next := e.Transition(s, round, received)
				// A sibling forked from the same parent must leave both
				// the parent and next as they were frozen.
				sibling := e.Transition(s, round, g.received(round))
				ref = refTransition(e, ref, round, received)
				want := refKey(ref)
				if next.Key() != want || rekey(e, next) != want {
					t.Fatalf("l=%d t=%d domain=%v round %d: key\n got %s\n(tree %s)\nwant %s",
						l, e.t, e.domain, round, next.Key(), rekey(e, next), want)
				}
				if rekey(e, s) != s.Key() || rekey(e, sibling) != sibling.Key() {
					t.Fatalf("l=%d t=%d round %d: a fork wrote into a shared tree", l, e.t, round)
				}
				if got, want := e.Decide(next), ref.decided; got != want {
					t.Fatalf("l=%d t=%d domain=%v round %d: Decide = %d, want %d", l, e.t, e.domain, round, got, want)
				}
				for r := 0; r <= e.rounds+1; r++ {
					got, want := e.Message(next, r), refMessage(e, ref, r)
					if (got == nil) != (want == nil) || (got != nil && got.Key() != want.Key()) {
						t.Fatalf("l=%d t=%d round %d: Message(%d) = %v, want %v", l, e.t, round, r, got, want)
					}
				}
				s = next
			}
		}
	}
}
