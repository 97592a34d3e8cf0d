package hom

import "testing"

// TestSuperroundMapping pins the partially synchronous clock: superround
// and init round of a round, phase and position, the stabilisation
// superround of a GST, leader rotation and the phase round budget.
func TestSuperroundMapping(t *testing.T) {
	tests := []struct {
		round, sr int
		init      bool
	}{
		{1, 1, true}, {2, 1, false}, {3, 2, true}, {4, 2, false}, {7, 4, true}, {8, 4, false},
	}
	for _, tc := range tests {
		if got := Superround(tc.round); got != tc.sr {
			t.Errorf("Superround(%d) = %d, want %d", tc.round, got, tc.sr)
		}
		if got := IsInitRound(tc.round); got != tc.init {
			t.Errorf("IsInitRound(%d) = %v, want %v", tc.round, got, tc.init)
		}
	}

	// T is the first superround whose init round is at or after GST.
	for _, tc := range []struct{ gst, stab int }{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {9, 5}} {
		got := StabSuperround(tc.gst)
		if got != tc.stab {
			t.Errorf("StabSuperround(%d) = %d, want %d", tc.gst, got, tc.stab)
		}
		if init := 2*got - 1; init < tc.gst || got > 1 && init-RoundsPerSuperround >= tc.gst {
			t.Errorf("StabSuperround(%d) = %d: init round %d is not the first at or after GST", tc.gst, got, init)
		}
	}

	for _, tc := range []struct{ round, phase, pos int }{
		{1, 0, 1}, {8, 0, 8}, {9, 1, 1}, {16, 1, 8}, {17, 2, 1},
	} {
		if phase, pos := PhasePos(tc.round); phase != tc.phase || pos != tc.pos {
			t.Errorf("PhasePos(%d) = (%d,%d), want (%d,%d)", tc.round, phase, pos, tc.phase, tc.pos)
		}
	}
	if RoundsPerPhase != 8 {
		t.Errorf("RoundsPerPhase = %d, want 8", RoundsPerPhase)
	}

	for _, tc := range []struct {
		phase, l int
		want     Identifier
	}{{0, 4, 1}, {3, 4, 4}, {4, 4, 1}, {0, 2, 1}, {1, 2, 2}, {2, 2, 1}} {
		if got := LeaderID(tc.phase, tc.l); got != tc.want {
			t.Errorf("LeaderID(%d, %d) = %d, want %d", tc.phase, tc.l, got, tc.want)
		}
	}

	// The budget is the GST prefix and 2l+4 phases.
	for _, tc := range []struct{ l, gst, want int }{{4, 1, 97}, {13, 17, 257}, {1, 0, 48}} {
		if got := PhaseRounds(Params{N: 16, L: tc.l, T: 4}, tc.gst); got != tc.want {
			t.Errorf("PhaseRounds(l=%d, gst=%d) = %d, want %d", tc.l, tc.gst, got, tc.want)
		}
	}
}
