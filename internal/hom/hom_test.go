package hom

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr error
	}{
		{"ok classical", Params{N: 4, L: 4, T: 1, Synchrony: Synchronous}, nil},
		{"ok homonyms", Params{N: 7, L: 4, T: 1, Synchrony: PartiallySynchronous}, nil},
		{"ok anonymous", Params{N: 5, L: 1, T: 0, Synchrony: Synchronous}, nil},
		{"too few processes", Params{N: 1, L: 1, T: 0, Synchrony: Synchronous}, ErrTooFewProcesses},
		{"zero identifiers", Params{N: 4, L: 0, T: 1, Synchrony: Synchronous}, ErrBadIdentifierCnt},
		{"more ids than processes", Params{N: 4, L: 5, T: 1, Synchrony: Synchronous}, ErrBadIdentifierCnt},
		{"negative t", Params{N: 4, L: 4, T: -1, Synchrony: Synchronous}, ErrBadFaultBound},
		{"t = n", Params{N: 4, L: 4, T: 4, Synchrony: Synchronous}, ErrBadFaultBound},
		{"bad synchrony", Params{N: 4, L: 4, T: 1}, ErrBadSynchrony},
		{"negative domain value", Params{N: 4, L: 4, T: 1, Synchrony: Synchronous, Domain: []Value{-2}}, ErrEmptyDomain},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want %v", tc.wantErr)
			}
			if !errorIs(err, tc.wantErr) {
				t.Fatalf("Validate() = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// errorIs is a local alias to keep the import list small in this package.
func errorIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestSolvableTable1(t *testing.T) {
	// Each case cross-checks one cell of the paper's Table 1 and the row
	// that decides it.
	const (
		sync, psync = Synchronous, PartiallySynchronous
	)
	tests := []struct {
		name string
		p    Params
		row  Row
		want bool
	}{
		// Synchronous, unrestricted: l > 3t (Theorem 3).
		{"sync l=3t+1", Params{N: 7, L: 4, T: 1, Synchrony: sync}, RowSync, true},
		{"sync l=3t", Params{N: 7, L: 3, T: 1, Synchrony: sync}, RowSync, false},
		{"sync numerate does not help", Params{N: 7, L: 3, T: 1, Synchrony: sync, Numerate: true}, RowSync, false},
		{"sync classical l=n", Params{N: 4, L: 4, T: 1, Synchrony: sync}, RowSync, true},
		// Partially synchronous, unrestricted: 2l > n+3t (Theorem 13).
		{"psync 2l>n+3t", Params{N: 4, L: 4, T: 1, Synchrony: psync}, RowPsync, true},
		{"psync 2l=n+3t", Params{N: 5, L: 4, T: 1, Synchrony: psync}, RowPsync, false},
		{"psync homonym slack", Params{N: 6, L: 5, T: 1, Synchrony: psync}, RowPsync, true},
		{"psync numerate does not help", Params{N: 5, L: 4, T: 1, Synchrony: psync, Numerate: true}, RowPsync, false},
		// The paper's headline anomaly: t=1, l=4 works for n=4 but not n=5.
		{"anomaly n=4", Params{N: 4, L: 4, T: 1, Synchrony: psync}, RowPsync, true},
		{"anomaly n=5", Params{N: 5, L: 4, T: 1, Synchrony: psync}, RowPsync, false},
		// Restricted + numerate: l > t (Theorems 14/15), both models.
		{"restricted numerate sync l=t+1", Params{N: 7, L: 2, T: 1, Synchrony: sync, Numerate: true, RestrictedByzantine: true}, RowNumerate, true},
		{"restricted numerate psync l=t+1", Params{N: 7, L: 2, T: 1, Synchrony: psync, Numerate: true, RestrictedByzantine: true}, RowNumerate, true},
		{"restricted numerate psync l=t+1, t=2", Params{N: 7, L: 3, T: 2, Synchrony: psync, Numerate: true, RestrictedByzantine: true}, RowNumerate, true},
		{"restricted numerate l=t", Params{N: 7, L: 2, T: 2, Synchrony: sync, Numerate: true, RestrictedByzantine: true}, RowNumerate, false},
		{"restricted numerate psync l=t", Params{N: 7, L: 2, T: 2, Synchrony: psync, Numerate: true, RestrictedByzantine: true}, RowNumerate, false},
		{"restricted numerate needs n>3t", Params{N: 6, L: 3, T: 2, Synchrony: sync, Numerate: true, RestrictedByzantine: true}, RowResilience, false},
		{"restricted numerate psync needs n>3t", Params{N: 6, L: 2, T: 2, Synchrony: psync, Numerate: true, RestrictedByzantine: true}, RowResilience, false},
		// Either switch alone leaves the numerate row (Theorems 19/20).
		{"restricted innumerate sync l=3t", Params{N: 7, L: 3, T: 1, Synchrony: sync, RestrictedByzantine: true}, RowSync, false},
		{"restricted innumerate sync l=3t+1", Params{N: 7, L: 4, T: 1, Synchrony: sync, RestrictedByzantine: true}, RowSync, true},
		{"restricted innumerate psync 2l=n+3t", Params{N: 5, L: 4, T: 1, Synchrony: psync, RestrictedByzantine: true}, RowPsync, false},
		{"restricted innumerate psync l=t+1", Params{N: 7, L: 3, T: 2, Synchrony: psync, RestrictedByzantine: true}, RowPsync, false},
		{"unrestricted numerate psync l=t+1", Params{N: 7, L: 3, T: 2, Synchrony: psync, Numerate: true}, RowPsync, false},
		// t = 0: no Byzantine process to restrict, so numerate processes
		// take the numerate row, and the synchronous row holds at l = 1.
		{"t=0 numerate unrestricted", Params{N: 4, L: 1, T: 0, Synchrony: psync, Numerate: true}, RowNumerate, true},
		{"t=0 sync l=1", Params{N: 3, L: 1, T: 0, Synchrony: sync}, RowSync, true},
		// t = 0 partially synchronous innumerate still needs 2l > n: a
		// pre-GST partition of homonyms breaks agreement with no
		// Byzantine process. Seed psynchom-agreement-partition-t0 is the
		// committed witness of this row, at n = 2 and l = 1.
		{"no faults", Params{N: 3, L: 1, T: 0, Synchrony: psync}, RowPsync, false},
		{"t=0 psync 2l>n", Params{N: 3, L: 2, T: 0, Synchrony: psync}, RowPsync, true},
		// n <= 3t is never solvable.
		{"n=3t classical", Params{N: 3, L: 3, T: 1, Synchrony: sync}, RowResilience, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Row(); got != tc.row {
				t.Fatalf("Row(%v) = %d, want %d", tc.p, got, tc.row)
			}
			if got := tc.p.Solvable(); got != tc.want {
				t.Fatalf("Solvable(%v) = %v, want %v (%s)", tc.p, got, tc.want, tc.p.SolvabilityReason())
			}
			verdict := "unsolvable: "
			if tc.want {
				verdict = "solvable: "
			}
			if reason := tc.p.SolvabilityReason(); !strings.HasPrefix(reason, verdict) {
				t.Fatalf("SolvabilityReason() = %q, want the prefix %q", reason, verdict)
			}
		})
	}
	p := Params{N: 7, L: 3, T: 1, Synchrony: psync}
	if allocs := testing.AllocsPerRun(100, func() { p.Solvable() }); allocs != 0 {
		t.Fatalf("Solvable allocates %v times per call, want 0", allocs)
	}
}

func TestSolvabilityMonotoneInL(t *testing.T) {
	// Property: adding identifiers never breaks solvability (for fixed
	// n, t and model flags).
	check := func(n, t8, variant uint8) bool {
		n2 := int(n%10) + 4
		tt := int(t8%3) + 1
		if n2 <= 3*tt {
			n2 = 3*tt + 1
		}
		p := Params{N: n2, T: tt, Synchrony: Synchronous}
		if variant&1 != 0 {
			p.Synchrony = PartiallySynchronous
		}
		p.Numerate = variant&2 != 0
		p.RestrictedByzantine = variant&4 != 0
		prev := false
		for l := 1; l <= n2; l++ {
			p.L = l
			cur := p.Solvable()
			if prev && !cur {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSolvabilityPsyncAtMostSync(t *testing.T) {
	// Property: in the unrestricted (or innumerate) variants, anything
	// solvable in partial synchrony is solvable synchronously — partial
	// synchrony only makes things harder (2l > n+3t implies l > 3t when
	// n > 3t).
	check := func(n, t8, l8 uint8) bool {
		tt := int(t8%3) + 1
		n2 := 3*tt + 1 + int(n%8)
		l := 1 + int(l8)%n2
		ps := Params{N: n2, L: l, T: tt, Synchrony: PartiallySynchronous}
		sy := ps
		sy.Synchrony = Synchronous
		if ps.Solvable() && !sy.Solvable() {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestUniqueIdentifierQuota(t *testing.T) {
	tests := []struct {
		n, l, want int
	}{
		{4, 4, 4},
		{7, 4, 1},
		{10, 4, 0},
		{6, 5, 4},
		{5, 4, 3},
	}
	for _, tc := range tests {
		p := Params{N: tc.n, L: tc.l, T: 1, Synchrony: Synchronous}
		if got := p.UniqueIdentifierQuota(); got != tc.want {
			t.Errorf("UniqueIdentifierQuota(n=%d,l=%d) = %d, want %d", tc.n, tc.l, got, tc.want)
		}
	}
}

func TestQuotaMatchesPsyncBound(t *testing.T) {
	// The partially synchronous condition 2l > n+3t is exactly "more
	// than 3t singleton identifiers are guaranteed".
	for n := 4; n <= 16; n++ {
		for tt := 1; 3*tt < n; tt++ {
			for l := 1; l <= n; l++ {
				p := Params{N: n, L: l, T: tt, Synchrony: PartiallySynchronous}
				want := p.UniqueIdentifierQuota() > 3*tt
				if got := p.Solvable(); got != want {
					t.Fatalf("n=%d l=%d t=%d: Solvable=%v, quota-based=%v", n, l, tt, got, want)
				}
			}
		}
	}
}

func TestEffectiveDomain(t *testing.T) {
	p := Params{N: 4, L: 4, T: 1, Synchrony: Synchronous}
	d := p.EffectiveDomain()
	if len(d) != 2 || d[0] != 0 || d[1] != 1 {
		t.Fatalf("default domain = %v, want [0 1]", d)
	}
	p.Domain = []Value{3, 5, 9}
	d = p.EffectiveDomain()
	if len(d) != 3 || d[2] != 9 {
		t.Fatalf("custom domain = %v", d)
	}
}

func TestParamsString(t *testing.T) {
	p := Params{N: 7, L: 4, T: 1, Synchrony: PartiallySynchronous, Numerate: true, RestrictedByzantine: true}
	want := "n=7 l=4 t=1 partially-synchronous numerate restricted"
	if got := p.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestIdentifierIsValid(t *testing.T) {
	if Identifier(0).IsValid(3) {
		t.Error("identifier 0 must be invalid")
	}
	if !Identifier(1).IsValid(3) || !Identifier(3).IsValid(3) {
		t.Error("identifiers 1..l must be valid")
	}
	if Identifier(4).IsValid(3) {
		t.Error("identifier l+1 must be invalid")
	}
}
