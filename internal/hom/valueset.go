package hom

import (
	"slices"
	"strconv"
)

// ValueSet is a set of values with deterministic (sorted) iteration order.
// The zero value is the empty set.
//
// The members are a sorted, duplicate-free slice that is never written in
// place: Add and AddAll install a new slice when they insert, so copying
// a ValueSet (Clone) shares the slice for free and the copies stay
// independent. A set held in a map or another value is updated by
// writing the changed set back.
type ValueSet struct {
	vals []Value
}

// NewValueSet returns a set containing the given values.
func NewValueSet(vs ...Value) ValueSet {
	vals := slices.Clone(vs)
	slices.Sort(vals)
	return ValueSet{vals: slices.Compact(vals)}
}

// Add inserts v.
func (s *ValueSet) Add(v Value) {
	i, found := slices.BinarySearch(s.vals, v)
	if found {
		return
	}
	vals := make([]Value, len(s.vals)+1)
	copy(vals, s.vals[:i])
	vals[i] = v
	copy(vals[i+1:], s.vals[i:])
	s.vals = vals
}

// AddAll inserts every value in vs, which may be unsorted and repeat
// values, with at most one allocation.
func (s *ValueSet) AddAll(vs []Value) {
	for _, v := range vs {
		if !s.Contains(v) {
			vals := append(append(make([]Value, 0, len(s.vals)+len(vs)), s.vals...), vs...)
			slices.Sort(vals)
			s.vals = slices.Compact(vals)
			return
		}
	}
}

// Contains reports membership.
func (s ValueSet) Contains(v Value) bool {
	_, found := slices.BinarySearch(s.vals, v)
	return found
}

// Len returns the number of members.
func (s ValueSet) Len() int { return len(s.vals) }

// Values returns the members sorted ascending, in a new slice.
func (s ValueSet) Values() []Value { return slices.Clone(s.vals) }

// AppendValues appends the members, sorted ascending, to dst and returns
// the extended slice: Values for callers that bring their own buffer.
func (s ValueSet) AppendValues(dst []Value) []Value { return append(dst, s.vals...) }

// Clone returns an independent copy. It costs nothing: no set is ever
// written in place.
func (s ValueSet) Clone() ValueSet { return s }

// Equal reports whether two sets hold the same members.
func (s ValueSet) Equal(o ValueSet) bool { return slices.Equal(s.vals, o.vals) }

// String renders the set in sorted order, e.g. "{0,1}".
func (s ValueSet) String() string { return string(s.AppendTo(nil)) }

// AppendTo appends the String rendering to dst and returns the extended
// slice, without allocating when dst has room: canonical message keys
// render a value set per lookup.
func (s ValueSet) AppendTo(dst []byte) []byte {
	dst = append(dst, '{')
	for i, v := range s.vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, '}')
}
