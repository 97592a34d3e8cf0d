// Package hom defines the foundational model types for Byzantine agreement
// with homonyms (Delporte-Gallet et al., PODC 2011): authenticated
// identifiers shared by several processes, model parameters covering the
// four variants studied by the paper (synchronous / partially synchronous,
// numerate / innumerate, restricted / unrestricted Byzantine processes),
// identifier assignments, and the Table-1 solvability characterisation.
package hom

import (
	"errors"
	"fmt"
	"math"
)

// Identifier is an authenticated identifier in {1, ..., L}. Several
// processes may hold the same identifier (homonyms); a receiver can verify
// the identifier attached to a message but cannot tell which holder sent
// it. Identifier 0 is never valid: identifiers start at 1 so that the zero
// value is recognisably unset. Identifiers are 32 bits wide, so L is at
// most math.MaxInt32.
type Identifier int32

// IsValid reports whether the identifier lies in {1, ..., l}.
func (id Identifier) IsValid(l int) bool { return id >= 1 && int(id) <= l }

// Value is a proposal/decision value. The paper treats binary agreement
// (values 0 and 1) but nothing in the algorithms depends on that, so any
// non-negative int32 is a legal value.
type Value int32

// NoValue is the "⊥" placeholder used where an algorithm has not decided
// or has no value to report.
const NoValue Value = -1

// Synchrony selects the timing model.
type Synchrony int

const (
	// Synchronous: every message sent in a round is delivered in that
	// round.
	Synchronous Synchrony = iota + 1
	// PartiallySynchronous: the basic model of Dwork, Lynch and
	// Stockmeyer — computation proceeds in rounds but a finite number of
	// messages may fail to be delivered. Our engine realises "finite" by
	// a GST round at and after which no drops are permitted.
	PartiallySynchronous
)

// String implements fmt.Stringer.
func (s Synchrony) String() string {
	switch s {
	case Synchronous:
		return "synchronous"
	case PartiallySynchronous:
		return "partially-synchronous"
	default:
		return fmt.Sprintf("synchrony(%d)", int(s))
	}
}

// Params fixes one instance of the homonym model.
type Params struct {
	// N is the number of processes (n ≥ 2).
	N int
	// L is the number of distinct identifiers actually assigned
	// (1 ≤ L ≤ N; every identifier is held by at least one process).
	L int
	// T is the maximum number of Byzantine processes tolerated.
	T int
	// Synchrony selects the timing model.
	Synchrony Synchrony
	// Numerate processes receive a multiset of messages per round and can
	// count copies of identical messages; innumerate processes receive a
	// set.
	Numerate bool
	// RestrictedByzantine limits each Byzantine process to at most one
	// message per recipient per round.
	RestrictedByzantine bool
	// Domain is the (finite, non-empty) set of possible input values.
	// The partially synchronous algorithms need to know it: when proper
	// sets from 2t+1 identifiers show no t+1-supported value, "all
	// possible input values" become proper. Defaults to {0, 1}.
	Domain []Value
}

// DefaultDomain is the binary value domain used when Params.Domain is nil.
func DefaultDomain() []Value { return []Value{0, 1} }

// EffectiveDomain returns p.Domain, or the binary default when unset. The
// returned slice must not be mutated.
func (p Params) EffectiveDomain() []Value {
	if len(p.Domain) == 0 {
		return DefaultDomain()
	}
	return p.Domain
}

// Validation errors returned by Params.Validate.
var (
	ErrTooFewProcesses  = errors.New("hom: need at least 2 processes")
	ErrBadIdentifierCnt = errors.New("hom: need 1 <= L <= N identifiers")
	ErrBadFaultBound    = errors.New("hom: need 0 <= T < N")
	ErrResilience       = errors.New("hom: byzantine agreement requires n > 3t")
	ErrBadSynchrony     = errors.New("hom: synchrony must be Synchronous or PartiallySynchronous")
	ErrEmptyDomain      = errors.New("hom: value domain must not contain NoValue or negatives")
	ErrUnsolvable       = errors.New("hom: parameters outside the solvable region of Table 1")
	ErrBadAssignment    = errors.New("hom: assignment must give every identifier in 1..L to at least one process")
	ErrAssignmentLength = errors.New("hom: assignment length must equal N")
	ErrInputLength      = errors.New("hom: need one input value per process")
	ErrRange            = errors.New("hom: identifiers and values must fit in 0..math.MaxInt32")
)

// Validate checks internal consistency of the parameters. It does not
// check solvability; see Solvable.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("%w (N=%d)", ErrTooFewProcesses, p.N)
	}
	if p.L < 1 || p.L > p.N {
		return fmt.Errorf("%w (L=%d, N=%d)", ErrBadIdentifierCnt, p.L, p.N)
	}
	if p.L > math.MaxInt32 {
		return fmt.Errorf("%w (L=%d)", ErrRange, p.L)
	}
	if p.T < 0 || p.T >= p.N {
		return fmt.Errorf("%w (T=%d, N=%d)", ErrBadFaultBound, p.T, p.N)
	}
	if p.Synchrony != Synchronous && p.Synchrony != PartiallySynchronous {
		return ErrBadSynchrony
	}
	for _, v := range p.EffectiveDomain() {
		if v < 0 {
			return fmt.Errorf("%w (value %d)", ErrEmptyDomain, v)
		}
	}
	return nil
}

// Row names a row of the paper's Table 1: one solvability condition and
// one algorithm.
type Row int

// The rows, in the order Params.Row tests them.
const (
	RowResilience Row = iota // n <= 3t: never solvable
	RowNumerate              // numerate and restricted: ℓ > t (Theorems 14/15)
	RowSync                  // synchronous otherwise: ℓ > 3t (Theorems 3/19)
	RowPsync                 // partially synchronous otherwise: 2ℓ > n+3t (Theorems 13/20)
)

// Row returns the Table-1 row the parameters fall in. At t = 0 there is
// no Byzantine process to restrict, so numerate processes always fall in
// RowNumerate. RowPsync applies at t = 0 too: once every identifier has
// two holders, a pre-GST partition needs no Byzantine process.
func (p Params) Row() Row {
	switch {
	case p.N <= 3*p.T:
		return RowResilience
	case p.Numerate && (p.RestrictedByzantine || p.T == 0):
		return RowNumerate
	case p.Synchrony == Synchronous:
		return RowSync
	default:
		return RowPsync
	}
}

// Solvable reports whether Byzantine agreement is solvable for these
// parameters according to the paper's Table 1: the condition of their
// Row. At t = 0 that is always true, except in RowPsync, where it reads
// 2ℓ > n.
func (p Params) Solvable() bool {
	switch p.Row() {
	case RowNumerate:
		return p.L > p.T
	case RowSync:
		return p.L > 3*p.T
	case RowPsync:
		return 2*p.L > p.N+3*p.T
	default:
		return false
	}
}

// SolvabilityReason returns a human-readable explanation of Solvable's
// verdict, citing the Table-1 condition of the parameters' Row.
func (p Params) SolvabilityReason() string {
	switch p.Row() {
	case RowResilience:
		return fmt.Sprintf("unsolvable: n = %d <= 3t = %d (classical resilience bound)", p.N, 3*p.T)
	case RowNumerate:
		if p.L > p.T {
			return fmt.Sprintf("solvable: restricted+numerate and l = %d > t = %d (Theorems 14/15)", p.L, p.T)
		}
		return fmt.Sprintf("unsolvable: restricted+numerate but l = %d <= t = %d (Proposition 16)", p.L, p.T)
	case RowSync:
		if p.L > 3*p.T {
			return fmt.Sprintf("solvable: synchronous and l = %d > 3t = %d (Theorem 3)", p.L, 3*p.T)
		}
		return fmt.Sprintf("unsolvable: synchronous and l = %d <= 3t = %d (Proposition 1)", p.L, 3*p.T)
	default:
		if 2*p.L > p.N+3*p.T {
			return fmt.Sprintf("solvable: partially synchronous and 2l = %d > n+3t = %d (Theorem 13)", 2*p.L, p.N+3*p.T)
		}
		return fmt.Sprintf("unsolvable: partially synchronous and 2l = %d <= n+3t = %d (Proposition 4)", 2*p.L, p.N+3*p.T)
	}
}

// UniqueIdentifierQuota returns the minimum number of identifiers that are
// guaranteed to be held by exactly one process: at most n-ℓ identifiers can
// be shared, so at least ℓ-(n-ℓ) = 2ℓ-n identifiers are singletons.
// The partially synchronous bound 2ℓ > n+3t is exactly the statement that
// more than 3t identifiers are singletons.
func (p Params) UniqueIdentifierQuota() int {
	q := 2*p.L - p.N
	if q < 0 {
		return 0
	}
	return q
}

// String implements fmt.Stringer.
func (p Params) String() string {
	num := "innumerate"
	if p.Numerate {
		num = "numerate"
	}
	byz := "unrestricted"
	if p.RestrictedByzantine {
		byz = "restricted"
	}
	return fmt.Sprintf("n=%d l=%d t=%d %s %s %s", p.N, p.L, p.T, p.Synchrony, num, byz)
}
