package hom

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestRoundRobinAssignment(t *testing.T) {
	a := RoundRobinAssignment(7, 3)
	want := Assignment{1, 2, 3, 1, 2, 3, 1}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("RoundRobinAssignment(7,3) = %v, want %v", a, want)
		}
	}
	p := Params{N: 7, L: 3, T: 1, Synchrony: Synchronous}
	if err := a.Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestStackedAssignment(t *testing.T) {
	a := StackedAssignment(7, 4)
	// Stack of n-l+1 = 4 slots with identifier 1, then 2, 3, 4.
	want := Assignment{1, 1, 1, 1, 2, 3, 4}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("StackedAssignment(7,4) = %v, want %v", a, want)
		}
	}
	if got := a.GroupSize(1); got != 4 {
		t.Fatalf("GroupSize(1) = %d, want 4", got)
	}
	singles := a.SingletonIdentifiers(4)
	if len(singles) != 3 || singles[0] != 2 || singles[2] != 4 {
		t.Fatalf("SingletonIdentifiers = %v, want [2 3 4]", singles)
	}
}

func TestRandomAssignmentValidAndDeterministic(t *testing.T) {
	check := func(nRaw, lRaw uint8, seed int64) bool {
		n := int(nRaw%12) + 2
		l := int(lRaw)%n + 1
		a := RandomAssignment(n, l, seed)
		b := RandomAssignment(n, l, seed)
		p := Params{N: n, L: l, T: 0, Synchrony: Synchronous}
		if err := a.Validate(p); err != nil {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false // not deterministic in the seed
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentValidateErrors(t *testing.T) {
	p := Params{N: 4, L: 3, T: 1, Synchrony: Synchronous}
	tests := []struct {
		name string
		a    Assignment
	}{
		{"wrong length", Assignment{1, 2, 3}},
		{"identifier out of range", Assignment{1, 2, 3, 4}},
		{"zero identifier", Assignment{0, 1, 2, 3}},
		{"missing identifier", Assignment{1, 1, 2, 2}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.a.Validate(p); err == nil {
				t.Fatalf("Validate(%v) = nil, want error", tc.a)
			}
		})
	}
}

func TestGroups(t *testing.T) {
	a := Assignment{2, 1, 2, 3, 1}
	g := a.Groups(3)
	if len(g) != 3 {
		t.Fatalf("Groups returned %d groups, want 3", len(g))
	}
	wantG1 := []int{1, 4}
	if len(g[1]) != 2 || g[1][0] != wantG1[0] || g[1][1] != wantG1[1] {
		t.Fatalf("G(1) = %v, want %v", g[1], wantG1)
	}
	if len(g[3]) != 1 || g[3][0] != 3 {
		t.Fatalf("G(3) = %v, want [3]", g[3])
	}
}

func TestAllAssignments(t *testing.T) {
	// Surjections from 3 slots onto 2 identifiers: 2^3 - 2 = 6.
	all := AllAssignments(3, 2)
	if len(all) != 6 {
		t.Fatalf("AllAssignments(3,2) returned %d, want 6", len(all))
	}
	p := Params{N: 3, L: 2, T: 0, Synchrony: Synchronous}
	seen := make(map[string]bool)
	for _, a := range all {
		if err := a.Validate(p); err != nil {
			t.Fatalf("invalid enumerated assignment %v: %v", a, err)
		}
		key := ""
		for _, id := range a {
			key += string(rune('0' + id))
		}
		if seen[key] {
			t.Fatalf("duplicate assignment %v", a)
		}
		seen[key] = true
	}
}

func TestAssignmentCloneIndependent(t *testing.T) {
	a := RoundRobinAssignment(4, 2)
	b := a.Clone()
	b[0] = 2
	if a[0] != 1 {
		t.Fatal("Clone shares backing array with original")
	}
}

func TestValueSet(t *testing.T) {
	var s ValueSet // zero value must be usable
	if s.Len() != 0 || s.Contains(0) {
		t.Fatal("zero ValueSet must be empty")
	}
	s.Add(3)
	s.Add(1)
	s.Add(3)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	vs := s.Values()
	if vs[0] != 1 || vs[1] != 3 {
		t.Fatalf("Values = %v, want sorted [1 3]", vs)
	}
	if s.String() != "{1,3}" {
		t.Fatalf("String = %q", s.String())
	}
	c := s.Clone()
	c.Add(7)
	if s.Contains(7) {
		t.Fatal("Clone is not independent")
	}
	if !NewValueSet(1, 3).Equal(s) {
		t.Fatal("Equal failed on equal sets")
	}
	if NewValueSet(1).Equal(s) {
		t.Fatal("Equal true on different sets")
	}
	s.AddAll([]Value{5, 6})
	if !s.Contains(5) || !s.Contains(6) {
		t.Fatal("AddAll missed values")
	}
}

func TestValueSetQuick(t *testing.T) {
	// Property: Values() is always sorted and duplicate-free, and
	// membership matches construction.
	check := func(raw []uint8) bool {
		var s ValueSet
		want := make(map[Value]bool)
		for _, r := range raw {
			v := Value(r % 17)
			s.Add(v)
			want[v] = true
		}
		if s.Len() != len(want) {
			return false
		}
		prev := Value(-1)
		for _, v := range s.Values() {
			if v <= prev || !want[v] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValueSetAppendTo(t *testing.T) {
	// Property: AppendTo (and so String, and every canonical key that
	// embeds a set) renders the members ascending inside braces, on both
	// the stack-sorted small path and the Values() path past 8 members,
	// and leaves what dst already held alone.
	check := func(raw []int8) bool {
		var s ValueSet
		for _, r := range raw {
			s.Add(Value(r % 12)) // up to 23 distinct members, negatives included
		}
		want := "{"
		for i, v := range s.Values() {
			if i > 0 {
				want += ","
			}
			want += strconv.Itoa(int(v))
		}
		want += "}"
		return s.String() == want && string(s.AppendTo([]byte("propose|"))) == "propose|"+want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	var empty ValueSet
	if got := empty.String(); got != "{}" {
		t.Fatalf("empty set renders %q, want {}", got)
	}
}
