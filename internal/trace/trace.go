// Package trace checks the three Byzantine-agreement correctness
// properties (paper §2) over finished executions and renders verdicts:
//
//  1. Validity: if all correct processes propose the same value v, no
//     correct process decides a value different from v.
//  2. Agreement: no two correct processes decide differently.
//  3. Termination: eventually every correct process decides. In a finite
//     simulation this becomes "every correct process decided within the
//     round budget"; callers choose budgets generously relative to the
//     algorithm's proven round complexity so a failed check is meaningful.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
)

// Property identifies one of the three agreement properties.
type Property int

const (
	// Validity is property (1) of the paper's §2.
	Validity Property = iota + 1
	// Agreement is property (2).
	Agreement
	// Termination is property (3), bounded by the round budget.
	Termination

	// The remaining properties belong to the authenticated-broadcast
	// primitives (Proposition 6 and Appendix A.3.1) rather than to
	// agreement itself. The fuzzer's primitive hosts check them directly
	// and report violations through the same Verdict type so one report
	// format covers both kinds of target.

	// BroadcastCorrectness: a broadcast performed in a stabilised
	// superround is accepted by every correct process in that superround.
	BroadcastCorrectness
	// BroadcastUnforgeability: no acceptance is attributed to an
	// identifier whose holders are all correct and never broadcast it
	// (respectively, with a multiplicity above what its holders support).
	BroadcastUnforgeability
	// BroadcastRelay: an acceptance at one correct process is followed by
	// the same acceptance at every correct process within the relay bound.
	BroadcastRelay
)

// String implements fmt.Stringer.
func (p Property) String() string {
	switch p {
	case Validity:
		return "validity"
	case Agreement:
		return "agreement"
	case Termination:
		return "termination"
	case BroadcastCorrectness:
		return "bcast-correctness"
	case BroadcastUnforgeability:
		return "bcast-unforgeability"
	case BroadcastRelay:
		return "bcast-relay"
	default:
		return fmt.Sprintf("property(%d)", int(p))
	}
}

// ParseProperty is the inverse of Property.String for the named
// properties; ok is false for unknown names.
func ParseProperty(s string) (Property, bool) {
	for _, p := range []Property{Validity, Agreement, Termination,
		BroadcastCorrectness, BroadcastUnforgeability, BroadcastRelay} {
		if p.String() == s {
			return p, true
		}
	}
	return 0, false
}

// Violation describes one observed property violation.
type Violation struct {
	Property Property
	Detail   string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Property.String() + ": " + v.Detail }

// Verdict summarises the property checks for one execution.
type Verdict struct {
	Violations []Violation
}

// OK reports whether no property was violated.
func (v Verdict) OK() bool { return len(v.Violations) == 0 }

// Has reports whether the given property was violated.
func (v Verdict) Has(p Property) bool {
	for _, viol := range v.Violations {
		if viol.Property == p {
			return true
		}
	}
	return false
}

// Properties returns the distinct violated properties in ascending order.
func (v Verdict) Properties() []Property {
	var out []Property
	for _, viol := range v.Violations {
		seen := false
		for _, p := range out {
			if p == viol.Property {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, viol.Property)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String implements fmt.Stringer.
func (v Verdict) String() string {
	if v.OK() {
		return "ok: validity, agreement and termination hold"
	}
	parts := make([]string, len(v.Violations))
	for i, viol := range v.Violations {
		parts[i] = viol.String()
	}
	return "violated: " + strings.Join(parts, "; ")
}

// Check evaluates validity, agreement and termination over a finished
// execution. Violations are reported in property order — every undecided
// slot, then the first disagreeing pair, then the first decision that
// breaks unanimity.
func Check(res *engine.Result) Verdict {
	var verdict Verdict

	// Validity binds only when every correct slot proposed what the
	// first did: an early-exit scan of the inputs settles that.
	proposed, unanimous := hom.NoValue, true
	lo, hi := res.CorrectRun(0)
	if lo < hi {
		proposed = res.Inputs[lo]
	}
	for ; unanimous && lo < hi; lo, hi = res.CorrectRun(hi) {
		for _, in := range res.Inputs[lo:hi] {
			if in != proposed {
				unanimous = false
				break
			}
		}
	}

	// One pass over the decisions: the first decided slot fixes the
	// value, and a slot leaves the fast path only when it is undecided
	// or decided otherwise — the first such is the agreement witness.
	firstVal, firstSlot := hom.NoValue, -1
	agreeSlot := -1
	for lo, hi := res.CorrectRun(0); lo < hi; lo, hi = res.CorrectRun(hi) {
		decidedAt := res.DecidedAt[lo:hi]
		decisions := res.Decisions[lo:hi][:len(decidedAt)]
		for i, at := range decidedAt {
			if at != 0 && decisions[i] == firstVal && firstSlot >= 0 {
				continue
			}
			switch s := lo + i; {
			case at == 0:
				verdict.Violations = append(verdict.Violations, Violation{
					Property: Termination,
					Detail: fmt.Sprintf("slot %d (identifier %d) undecided after %d rounds",
						s, res.Assignment[s], res.Rounds),
				})
			case firstSlot < 0:
				firstVal, firstSlot = decisions[i], s
			case agreeSlot < 0:
				agreeSlot = s
			}
		}
	}

	if agreeSlot >= 0 {
		verdict.Violations = append(verdict.Violations, Violation{
			Property: Agreement,
			Detail: fmt.Sprintf("slot %d decided %d but slot %d decided %d",
				firstSlot, firstVal, agreeSlot, res.Decisions[agreeSlot]),
		})
	}
	// The first decision other than the proposal is the first decided
	// slot's, or else the first disagreeing one's.
	validSlot := agreeSlot
	if firstVal != proposed {
		validSlot = firstSlot
	}
	if unanimous && validSlot >= 0 {
		verdict.Violations = append(verdict.Violations, Violation{
			Property: Validity,
			Detail: fmt.Sprintf("all correct processes proposed %d but slot %d decided %d",
				proposed, validSlot, res.Decisions[validSlot]),
		})
	}
	return verdict
}

// LatestDecisionRound returns the largest decision round among correct
// slots (0 if none decided) — the execution's decision latency.
func LatestDecisionRound(res *engine.Result) int {
	latest := 0
	for lo, hi := res.CorrectRun(0); lo < hi; lo, hi = res.CorrectRun(hi) {
		for _, at := range res.DecidedAt[lo:hi] {
			latest = max(latest, at)
		}
	}
	return latest
}

// DecidedValue returns the common decided value of the correct slots, when
// at least one decided and agreement holds; otherwise ok is false.
func DecidedValue(res *engine.Result) (v hom.Value, ok bool) {
	v = hom.NoValue
	for lo, hi := res.CorrectRun(0); lo < hi; lo, hi = res.CorrectRun(hi) {
		decidedAt := res.DecidedAt[lo:hi]
		decisions := res.Decisions[lo:hi][:len(decidedAt)]
		for i, at := range decidedAt {
			if at == 0 || decisions[i] == v {
				continue
			}
			if v != hom.NoValue {
				return hom.NoValue, false
			}
			v = decisions[i]
		}
	}
	return v, v != hom.NoValue
}
