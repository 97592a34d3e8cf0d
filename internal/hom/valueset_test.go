package hom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// mapValueSet is the reference ValueSet: the map-backed set the sorted
// slice replaced, kept verbatim in behaviour (members in a map, sorted on
// every read).
type mapValueSet struct {
	members map[Value]bool
}

func newMapValueSet(vs ...Value) mapValueSet {
	s := mapValueSet{members: make(map[Value]bool, len(vs))}
	for _, v := range vs {
		s.members[v] = true
	}
	return s
}

func (s *mapValueSet) Add(v Value) {
	if s.members == nil {
		s.members = make(map[Value]bool, 2)
	}
	s.members[v] = true
}

func (s *mapValueSet) AddAll(vs []Value) {
	for _, v := range vs {
		s.Add(v)
	}
}

func (s mapValueSet) Contains(v Value) bool { return s.members[v] }

func (s mapValueSet) Len() int { return len(s.members) }

func (s mapValueSet) Values() []Value {
	out := make([]Value, 0, len(s.members))
	for v := range s.members {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func (s mapValueSet) Clone() mapValueSet {
	out := mapValueSet{members: make(map[Value]bool, len(s.members))}
	for v := range s.members {
		out.members[v] = true
	}
	return out
}

func (s mapValueSet) Equal(o mapValueSet) bool {
	if len(s.members) != len(o.members) {
		return false
	}
	for v := range s.members {
		if !o.members[v] {
			return false
		}
	}
	return true
}

func (s mapValueSet) AppendTo(dst []byte) []byte {
	dst = append(dst, '{')
	for i, v := range s.Values() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, '}')
}

// TestValueSetMatchesMapReference runs random operation sequences on a
// pool of sets and their map references side by side — Add, AddAll with
// duplicates, unsorted and empty input, NewValueSet, Clone, plain copies
// written back — and requires every read (Contains, Len, Values,
// AppendValues, AppendTo, String, Equal against every other set) to give
// the reference's result and bytes. Values run over small, negative and
// extreme magnitudes, NoValue included.
func TestValueSetMatchesMapReference(t *testing.T) {
	extremes := []Value{NoValue, math.MinInt32, math.MaxInt32, math.MaxInt32 - 1, 1 << 30}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		value := func() Value {
			if rng.Intn(6) == 0 {
				return extremes[rng.Intn(len(extremes))]
			}
			return Value(rng.Intn(21) - 10)
		}
		values := func() []Value {
			vs := make([]Value, rng.Intn(7))
			for i := range vs {
				vs[i] = value()
			}
			if len(vs) > 1 && rng.Intn(3) == 0 {
				vs[len(vs)-1] = vs[0] // a repeat
			}
			return vs
		}
		sets, refs := make([]ValueSet, 4), make([]mapValueSet, 4)
		for step := 0; step < 300; step++ {
			i, j := rng.Intn(len(sets)), rng.Intn(len(sets))
			var op string
			switch rng.Intn(6) {
			case 0, 1:
				v := value()
				op = fmt.Sprintf("Add(%d)", v)
				sets[i].Add(v)
				refs[i].Add(v)
			case 2:
				vs := values()
				op = fmt.Sprintf("AddAll(%v)", vs)
				in := slices.Clone(vs)
				sets[i].AddAll(in)
				refs[i].AddAll(vs)
				if !slices.Equal(in, vs) {
					t.Fatalf("seed %d step %d: %s wrote into its argument", seed, step, op)
				}
			case 3:
				vs := values()
				op = fmt.Sprintf("NewValueSet(%v...)", vs)
				in := slices.Clone(vs)
				sets[i], refs[i] = NewValueSet(in...), newMapValueSet(vs...)
				slices.Reverse(in) // the set must not alias its argument
			case 4:
				op = fmt.Sprintf("set %d = Clone of %d", i, j)
				sets[i], refs[i] = sets[j].Clone(), refs[j].Clone()
			case 5:
				op = fmt.Sprintf("set %d = copy of %d, then Add, written back", i, j)
				v := value()
				cp := sets[j]
				cp.Add(v)
				sets[i] = cp
				refs[i] = refs[j].Clone()
				refs[i].Add(v)
			}
			for k := range sets {
				s, r := sets[k], refs[k]
				if s.Len() != r.Len() || !slices.Equal(s.Values(), r.Values()) {
					t.Fatalf("seed %d step %d after %s: set %d holds %v, reference %v", seed, step, op, k, s.Values(), r.Values())
				}
				if got, want := string(s.AppendTo([]byte("p|"))), string(r.AppendTo([]byte("p|"))); got != want || s.String() != want[2:] {
					t.Fatalf("seed %d step %d: set %d renders %q / %q, reference %q", seed, step, k, got, s.String(), want)
				}
				if got := s.AppendValues([]Value{7}); !slices.Equal(got, append([]Value{7}, r.Values()...)) {
					t.Fatalf("seed %d step %d: set %d AppendValues = %v", seed, step, k, got)
				}
				for _, v := range append(extremes, value(), value()) {
					if s.Contains(v) != r.Contains(v) {
						t.Fatalf("seed %d step %d: set %d Contains(%d) = %v, reference %v", seed, step, k, v, s.Contains(v), r.Contains(v))
					}
				}
				for o := range sets {
					if s.Equal(sets[o]) != r.Equal(refs[o]) {
						t.Fatalf("seed %d step %d: set %d Equal set %d = %v, reference %v", seed, step, k, o, s.Equal(sets[o]), r.Equal(refs[o]))
					}
				}
			}
		}
	}
}

// TestValueSetCopiesAreIndependent pins the copy-on-write contract: a set
// with spare capacity behind its members, copied by Clone or by plain
// assignment, must not see what its copies insert — in the middle, where
// an in-place insert would shift its members, or at the end, where two
// copies would write the same spare slot — nor what Values' callers write.
func TestValueSetCopiesAreIndependent(t *testing.T) {
	var s ValueSet
	s.AddAll([]Value{5, 1, 5, 3})
	if cap(s.vals) == len(s.vals) {
		t.Fatalf("AddAll left no spare capacity (len %d): the test needs some", len(s.vals))
	}
	a, b := s.Clone(), s
	a.Add(2)
	b.Add(9)
	c, d := s, s
	c.Add(7)
	d.Add(8)
	s.Values()[0] = 42
	for _, tc := range []struct {
		name string
		set  ValueSet
		want string
	}{
		{"original", s, "{1,3,5}"},
		{"clone plus 2", a, "{1,2,3,5}"},
		{"copy plus 9", b, "{1,3,5,9}"},
		{"copy plus 7", c, "{1,3,5,7}"},
		{"copy plus 8", d, "{1,3,5,8}"},
	} {
		if got := tc.set.String(); got != tc.want {
			t.Fatalf("%s holds %s, want %s", tc.name, got, tc.want)
		}
	}
}
