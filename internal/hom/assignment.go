package hom

import (
	"fmt"
	"math/rand"
	"sort"
)

// Assignment maps each process slot (0-based engine-internal index, never
// visible to algorithms) to its authenticated identifier. An assignment for
// Params{N, L} has length N and gives every identifier in 1..L to at least
// one slot.
type Assignment []Identifier

// Validate checks the assignment against the parameters: correct length
// and full identifier coverage.
func (a Assignment) Validate(p Params) error {
	if len(a) != p.N {
		return fmt.Errorf("%w (len=%d, N=%d)", ErrAssignmentLength, len(a), p.N)
	}
	seen := make([]bool, max(p.L, 0)+1) // an L below 1 fails IsValid at slot 0
	distinct := 0
	for slot, id := range a {
		if !id.IsValid(p.L) {
			return fmt.Errorf("%w (slot %d has identifier %d, L=%d)", ErrBadAssignment, slot, id, p.L)
		}
		if !seen[id] {
			seen[id] = true
			distinct++
		}
	}
	if distinct != p.L {
		return fmt.Errorf("%w (only %d of %d identifiers assigned)", ErrBadAssignment, distinct, p.L)
	}
	return nil
}

// Groups returns, for each identifier 1..l, the sorted slots holding it —
// the paper's G(i).
func (a Assignment) Groups(l int) map[Identifier][]int {
	g := make(map[Identifier][]int, l)
	for slot, id := range a {
		g[id] = append(g[id], slot)
	}
	for id := range g {
		sort.Ints(g[id])
	}
	return g
}

// GroupSize returns the number of slots holding identifier id.
func (a Assignment) GroupSize(id Identifier) int {
	n := 0
	for _, other := range a {
		if other == id {
			n++
		}
	}
	return n
}

// SingletonIdentifiers returns the sorted identifiers held by exactly one
// process (the non-homonyms).
func (a Assignment) SingletonIdentifiers(l int) []Identifier {
	counts := make(map[Identifier]int, l)
	for _, id := range a {
		counts[id]++
	}
	var out []Identifier
	for id, c := range counts {
		if c == 1 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns an independent copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	copy(out, a)
	return out
}

// RoundRobinAssignment spreads n slots over l identifiers as evenly as
// possible: slot s gets identifier (s mod l) + 1.
func RoundRobinAssignment(n, l int) Assignment {
	a := make(Assignment, n)
	for s := range a {
		a[s] = Identifier(s%l + 1)
	}
	return a
}

// StackedAssignment gives identifier 1 to the first n-l+1 slots (one big
// homonym "stack", matching the constructions in the paper's proofs) and
// identifiers 2..l to one slot each.
func StackedAssignment(n, l int) Assignment {
	a := make(Assignment, n)
	stack := n - l + 1
	for s := 0; s < stack; s++ {
		a[s] = 1
	}
	for s := stack; s < n; s++ {
		a[s] = Identifier(s - stack + 2)
	}
	return a
}

// RandomAssignment draws a uniformly random valid assignment: every
// identifier is first given one slot, then the remaining slots draw
// identifiers uniformly; finally the slot order is shuffled. Deterministic
// in the seed.
func RandomAssignment(n, l int, seed int64) Assignment {
	rng := rand.New(rand.NewSource(seed))
	a := make(Assignment, n)
	for i := 0; i < l; i++ {
		a[i] = Identifier(i + 1)
	}
	for i := l; i < n; i++ {
		a[i] = Identifier(rng.Intn(l) + 1)
	}
	rng.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
	return a
}

// AllAssignments enumerates every valid assignment of l identifiers to n
// slots (surjective maps). Intended for exhaustive testing on tiny n; the
// count grows like l^n.
func AllAssignments(n, l int) []Assignment {
	var out []Assignment
	cur := make(Assignment, n)
	var rec func(slot int)
	rec = func(slot int) {
		if slot == n {
			seen := make(map[Identifier]bool, l)
			for _, id := range cur {
				seen[id] = true
			}
			if len(seen) == l {
				out = append(out, cur.Clone())
			}
			return
		}
		for id := 1; id <= l; id++ {
			cur[slot] = Identifier(id)
			rec(slot + 1)
		}
	}
	rec(0)
	return out
}
