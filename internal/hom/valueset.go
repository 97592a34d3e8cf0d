package hom

import (
	"slices"
	"strconv"
)

// ValueSet is a set of values with deterministic (sorted) iteration order.
// The zero value is the empty set, but most callers should use NewValueSet
// so the map is allocated.
type ValueSet struct {
	members map[Value]bool
}

// NewValueSet returns a set containing the given values.
func NewValueSet(vs ...Value) ValueSet {
	s := ValueSet{members: make(map[Value]bool, len(vs))}
	for _, v := range vs {
		s.members[v] = true
	}
	return s
}

// Add inserts v, allocating lazily so the zero ValueSet is usable.
func (s *ValueSet) Add(v Value) {
	if s.members == nil {
		s.members = make(map[Value]bool, 2)
	}
	s.members[v] = true
}

// AddAll inserts every value in vs.
func (s *ValueSet) AddAll(vs []Value) {
	for _, v := range vs {
		s.Add(v)
	}
}

// Contains reports membership.
func (s ValueSet) Contains(v Value) bool { return s.members[v] }

// Len returns the number of members.
func (s ValueSet) Len() int { return len(s.members) }

// Values returns the members sorted ascending.
func (s ValueSet) Values() []Value {
	return s.AppendValues(make([]Value, 0, len(s.members)))
}

// AppendValues appends the members, sorted ascending, to dst and returns
// the extended slice: Values for callers that bring their own buffer.
func (s ValueSet) AppendValues(dst []Value) []Value {
	n := len(dst)
	for v := range s.members {
		dst = append(dst, v)
	}
	slices.Sort(dst[n:])
	return dst
}

// Clone returns an independent copy.
func (s ValueSet) Clone() ValueSet {
	out := ValueSet{members: make(map[Value]bool, len(s.members))}
	for v := range s.members {
		out.members[v] = true
	}
	return out
}

// Equal reports whether two sets hold the same members.
func (s ValueSet) Equal(o ValueSet) bool {
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

// String renders the set in sorted order, e.g. "{0,1}".
func (s ValueSet) String() string { return string(s.AppendTo(nil)) }

// AppendTo appends the String rendering to dst and returns the extended
// slice, without allocating when dst has room: canonical message keys
// render a value set per lookup, and the sets the protocols exchange
// (proper and proposable values) hold a handful of members, which are
// insertion-sorted in a stack array. Larger sets go through Values.
func (s ValueSet) AppendTo(dst []byte) []byte {
	var small [8]Value
	sorted := small[:0]
	if len(s.members) > len(small) {
		sorted = s.Values()
	} else {
		for v := range s.members {
			i := len(sorted)
			sorted = append(sorted, v)
			for ; i > 0 && sorted[i-1] > v; i-- {
				sorted[i] = sorted[i-1]
			}
			sorted[i] = v
		}
	}
	dst = append(dst, '{')
	for i, v := range sorted {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, '}')
}
