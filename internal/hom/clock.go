package hom

// The partially synchronous clock of the paper's Figures 5, 6 and 7.
// Rounds are 1-based. Superround r is rounds 2r−1 and 2r; the first of
// the two is its init round, where broadcasts start. A phase is four
// superrounds, and identifier (phase mod ℓ)+1 leads it.
const (
	RoundsPerSuperround = 2
	SuperroundsPerPhase = 4
	RoundsPerPhase      = RoundsPerSuperround * SuperroundsPerPhase
)

// Superround maps a 1-based round to its 1-based superround.
func Superround(round int) int { return (round + 1) / 2 }

// IsInitRound reports whether the round is the first round of its
// superround (where ⟨init⟩ messages are sent and received).
func IsInitRound(round int) bool { return round%2 == 1 }

// StabSuperround returns the first superround whose init round is at or
// after gst: the stabilisation superround T of the broadcast properties.
func StabSuperround(gst int) int { return (gst + 2) / 2 }

// PhasePos decomposes a 1-based round into the 0-based phase and the
// 1-based position within the phase (1..RoundsPerPhase).
func PhasePos(round int) (phase, pos int) {
	return (round - 1) / RoundsPerPhase, (round-1)%RoundsPerPhase + 1
}

// LeaderID returns the leader identifier of a phase: (phase mod l) + 1.
func LeaderID(phase, l int) Identifier { return Identifier(phase%l + 1) }

// PhaseRounds returns a round budget that lets a phase-structured
// algorithm stabilise and decide: the GST prefix, then enough phases for
// every identifier to lead twice after stabilisation, plus slack.
func PhaseRounds(p Params, gst int) int {
	return gst + RoundsPerPhase*(2*p.L+4)
}
