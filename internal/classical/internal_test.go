package classical

import (
	"testing"
	"testing/quick"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

func TestLabelHelpers(t *testing.T) {
	// A 10-identifier instance gives multi-bit chunks, so element
	// boundaries matter (the packed analogue of "1" not matching inside
	// "10" in the old dot-joined labels).
	e, err := NewEIG(10, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		label    Label
		level    int
		contains hom.Identifier
		want     bool
	}{
		{RootLabel, 0, 1, false},
		{e.LabelFromPath(3), 1, 3, true},
		{e.LabelFromPath(3), 1, 1, false},
		{e.LabelFromPath(3, 5), 2, 5, true},
		{e.LabelFromPath(3, 5), 2, 3, true},
		{e.LabelFromPath(3, 5), 2, 4, false},
		{e.LabelFromPath(10, 2), 2, 1, false}, // 1's bits inside 10's chunk must not match
	}
	for _, tc := range tests {
		if got := e.labelLevel(tc.label); got != tc.level {
			t.Errorf("labelLevel(%v) = %d, want %d", tc.label, got, tc.level)
		}
		if got := e.labelContains(tc.label, tc.contains); got != tc.want {
			t.Errorf("labelContains(%v, %d) = %v, want %v", tc.label, tc.contains, got, tc.want)
		}
	}
	if got := e.extendLabel(RootLabel, 4); got != e.LabelFromPath(4) {
		t.Errorf("extendLabel root = %v", got)
	}
	if got := e.extendLabel(e.LabelFromPath(4), 2); got != e.LabelFromPath(4, 2) {
		t.Errorf("extendLabel = %v", got)
	}
	// Distinct paths must pack to distinct labels (injectivity).
	if e.LabelFromPath(10, 2) == e.LabelFromPath(1, 0, 2) || e.LabelFromPath(2, 1) == e.LabelFromPath(1, 2) {
		t.Fatal("packed labels collide across distinct paths")
	}
}

func TestWellFormedLabel(t *testing.T) {
	e, err := NewEIG(4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		label  Label
		level  int
		sender hom.Identifier
		want   bool
	}{
		{RootLabel, 0, 1, true},
		{RootLabel, 1, 1, false}, // wrong level
		{e.LabelFromPath(2), 1, 1, true},
		{e.LabelFromPath(2), 1, 2, false},    // sender relaying its own label
		{e.LabelFromPath(2, 2), 2, 1, false}, // duplicate identifier
		{Label(0b111), 1, 1, false},          // out-of-range identifier bits (7 > l)
		{e.LabelFromPath(2, 3), 2, 1, true},
		{e.LabelFromPath(2, 3), 1, 1, false},                // level mismatch: residue beyond level
		{e.LabelFromPath(1, 2) | Label(1)<<60, 2, 3, false}, // junk high bits
	}
	for _, tc := range tests {
		if got := e.wellFormedLabel(tc.label, tc.level, tc.sender); got != tc.want {
			t.Errorf("wellFormedLabel(%v, %d, %d) = %v, want %v",
				tc.label, tc.level, tc.sender, got, tc.want)
		}
	}
}

func TestWellFormedLabelLargeIdentifiers(t *testing.T) {
	// Identifiers above 63 must still be checked for duplicates (a
	// 64-bit seen bitmap would silently wrap). l=100 needs 7 bits per
	// element; t=2 keeps 7*3 within the packing budget.
	e, err := NewEIG(100, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.wellFormedLabel(e.LabelFromPath(65, 65), 2, 1) {
		t.Fatal("duplicate identifier 65 accepted")
	}
	if !e.wellFormedLabel(e.LabelFromPath(65, 66), 2, 1) {
		t.Fatal("distinct large identifiers rejected")
	}
}

func TestEIGTooLargeToPack(t *testing.T) {
	// 37 identifiers need 6 bits per element; 13 levels (t=12) would need
	// 78 bits. Such instances are computationally unreachable anyway
	// (exponential messages), so the constructor refuses them.
	if _, err := NewEIG(37, 12, nil); err != ErrEIGTooLarge {
		t.Fatalf("NewEIG(37,12) err = %v, want ErrEIGTooLarge", err)
	}
	if _, err := NewEIG(28, 9, nil); err != nil {
		t.Fatalf("NewEIG(28,9) (50 bits) should pack: %v", err)
	}
}

func TestEIGResolveMajority(t *testing.T) {
	e, err := NewEIG(4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// t+1 = 2 levels. Children of the root are labels 1..4; give
	// three subtrees resolving to 1 and one to 0: the root must resolve
	// to the strict majority 1.
	tree := map[Label]hom.Value{}
	for _, r := range []hom.Identifier{1, 2, 3} {
		root := e.LabelFromPath(r)
		for j := 1; j <= 4; j++ {
			id := hom.Identifier(j)
			if e.labelContains(root, id) {
				continue
			}
			tree[e.extendLabel(root, id)] = 1
		}
		tree[root] = 1
	}
	four := e.LabelFromPath(4)
	for j := 1; j <= 4; j++ {
		id := hom.Identifier(j)
		if e.labelContains(four, id) {
			continue
		}
		tree[e.extendLabel(four, id)] = 0
	}
	tree[four] = 0
	if got := e.resolve(treeOf(tree)); got != 1 {
		t.Fatalf("resolve(root) = %d, want 1", got)
	}
}

func TestEIGResolveDefaultOnTie(t *testing.T) {
	e, err := NewEIG(4, 1, []hom.Value{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two subtrees at 0, two at 1: no strict majority, default (0) wins.
	tree := map[Label]hom.Value{}
	for i, r := range []hom.Identifier{1, 2, 3, 4} {
		root := e.LabelFromPath(r)
		v := hom.Value(i % 2)
		for j := 1; j <= 4; j++ {
			id := hom.Identifier(j)
			if e.labelContains(root, id) {
				continue
			}
			tree[e.extendLabel(root, id)] = v
		}
	}
	if got := e.resolve(treeOf(tree)); got != 0 {
		t.Fatalf("resolve on tie = %d, want default 0", got)
	}
}

func TestEIGResolveMissingLeavesDefault(t *testing.T) {
	e, err := NewEIG(4, 1, []hom.Value{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Empty tree: everything defaults.
	if got := e.resolve(treeOf(map[Label]hom.Value{})); got != 0 {
		t.Fatalf("resolve of empty tree = %d, want 0", got)
	}
}

func TestEIGClampValue(t *testing.T) {
	e, err := NewEIG(4, 1, []hom.Value{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.clampValue(5); got != 5 {
		t.Fatalf("clampValue(5) = %d", got)
	}
	if got := e.clampValue(9); got != 2 {
		t.Fatalf("clampValue(9) = %d, want default 2", got)
	}
}

func TestPhaseOf(t *testing.T) {
	tests := []struct {
		round, phase int
		king         bool
	}{
		{1, 1, false}, {2, 1, true}, {3, 2, false}, {4, 2, true},
	}
	for _, tc := range tests {
		phase, king := phaseOf(tc.round)
		if phase != tc.phase || king != tc.king {
			t.Fatalf("phaseOf(%d) = (%d,%v), want (%d,%v)", tc.round, phase, king, tc.phase, tc.king)
		}
	}
}

func TestPhaseKingTransitionIgnoresWrongPhase(t *testing.T) {
	pk, err := NewPhaseKing(5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := pk.Init(2, 1)
	// A stale phase-king message from a past phase must not affect the
	// king-round transition of phase 1.
	s = pk.Transition(s, 1, []msg.Message{
		{ID: 1, Body: PKPref{Phase: 1, Val: 1}},
		{ID: 2, Body: PKPref{Phase: 1, Val: 1}},
		{ID: 3, Body: PKPref{Phase: 1, Val: 1}},
		{ID: 4, Body: PKPref{Phase: 1, Val: 1}},
		{ID: 5, Body: PKPref{Phase: 1, Val: 1}},
	})
	s2 := pk.Transition(s, 2, []msg.Message{
		{ID: 1, Body: PKKing{Phase: 7, Val: 0}}, // wrong phase: ignore
	})
	st, ok := s2.(*pkState)
	if !ok {
		t.Fatal("unexpected state type")
	}
	// mult = 5 > l/2 + t = 3.5, so pref keeps the majority value 1
	// regardless of the bogus king message.
	if st.pref != 1 {
		t.Fatalf("pref = %d, want 1", st.pref)
	}
}

func TestPhaseKingIgnoresNonKingSender(t *testing.T) {
	pk, err := NewPhaseKing(5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := pk.Init(2, 0)
	// No exchange-round majority (mult = 0 < threshold), so the king
	// round adopts the king's value — but only from the true king
	// identifier (phase 1 => identifier 1).
	s2 := pk.Transition(s, 2, []msg.Message{
		{ID: 3, Body: PKKing{Phase: 1, Val: 1}}, // impostor king
	})
	if st := s2.(*pkState); st.pref != 0 {
		t.Fatalf("pref = %d, want default 0 (impostor ignored)", st.pref)
	}
	s3 := pk.Transition(s, 2, []msg.Message{
		{ID: 1, Body: PKKing{Phase: 1, Val: 1}},
	})
	if st := s3.(*pkState); st.pref != 1 {
		t.Fatalf("pref = %d, want king's 1", st.pref)
	}
}

func TestStateImmutabilityUnderTransition(t *testing.T) {
	// Property: Transition never mutates its input state (states are
	// shared via selection rounds and between the classes of a split,
	// so aliasing bugs would be corruption). The parent's tree may hold
	// spare capacity — its round-1 inbox repeated identifier 2 — so a
	// successor that appended its one new entry into it would be
	// overwritten by the next fork; every tree must still re-derive its
	// frozen key.
	e, err := NewEIG(4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	root := func(v hom.Value) *EIGPayload { return NewEIGPayload(0, []EIGEntry{{Label: RootLabel, Val: v}}) }
	relay := func(v hom.Value) *EIGPayload {
		return NewEIGPayload(1, []EIGEntry{{Label: e.LabelFromPath(2), Val: v}})
	}
	check := func(val uint8) bool {
		a, b := hom.Value(val%2), hom.Value(val/2%2)
		s1 := e.Init(1, a)
		before := s1.Key()
		parent := e.Transition(s1, 1, []msg.Message{
			{ID: 1, Body: root(a)}, {ID: 2, Body: root(a)}, {ID: 2, Body: root(b)},
			{ID: 2, Body: root(1 - a)}, {ID: 2, Body: root(b)}, {ID: 3, Body: root(b)},
		})
		left := e.Transition(parent, 2, []msg.Message{{ID: 1, Body: relay(a)}})
		right := e.Transition(parent, 2, []msg.Message{{ID: 3, Body: relay(1 - a)}})
		for _, s := range []State{parent, left, right} {
			if rekey(e, s) != s.Key() {
				return false
			}
		}
		return s1.Key() == before && left.Key() != right.Key()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseKingTieGoesToSmallestValue(t *testing.T) {
	// The exchange tally breaks a tie toward the smallest value, even
	// when the domain lists the larger value first (5 is the default).
	pk, err := NewPhaseKing(5, 1, []hom.Value{5, 2})
	if err != nil {
		t.Fatal(err)
	}
	s := pk.Transition(pk.Init(1, 5), 1, []msg.Message{
		{ID: 1, Body: PKPref{Phase: 1, Val: 5}},
		{ID: 2, Body: PKPref{Phase: 1, Val: 2}},
		{ID: 3, Body: PKPref{Phase: 1, Val: 5}},
		{ID: 4, Body: PKPref{Phase: 1, Val: 2}},
		{ID: 5, Body: PKPref{Phase: 1, Val: 9}}, // out of domain: counts as the default 5
	})
	if st := s.(*pkState); st.maj != 5 || st.mult != 3 {
		t.Fatalf("maj, mult = %d, %d; want 5, 3", st.maj, st.mult)
	}
	s = pk.Transition(pk.Init(1, 5), 1, []msg.Message{
		{ID: 1, Body: PKPref{Phase: 1, Val: 5}},
		{ID: 2, Body: PKPref{Phase: 1, Val: 2}},
		{ID: 3, Body: PKPref{Phase: 1, Val: 5}},
		{ID: 4, Body: PKPref{Phase: 1, Val: 2}},
	})
	if st := s.(*pkState); st.maj != 2 || st.mult != 2 {
		t.Fatalf("tie: maj, mult = %d, %d; want 2, 2", st.maj, st.mult)
	}
}

func TestFilterEquivocators(t *testing.T) {
	in := msg.NewInbox(false, []msg.Message{
		{ID: 1, Body: msg.Raw("a")},
		{ID: 2, Body: msg.Raw("a")},
		{ID: 2, Body: msg.Raw("b")}, // identifier 2 equivocates
		{ID: 3, Body: msg.Raw("c")},
	})
	out := FilterEquivocators(in)
	if len(out) != 2 {
		t.Fatalf("FilterEquivocators kept %d messages, want 2", len(out))
	}
	for _, m := range out {
		if m.ID == 2 {
			t.Fatal("equivocating identifier survived the filter")
		}
	}
}
