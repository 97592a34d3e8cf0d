package classical

import (
	"strconv"
	"strings"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// PhaseKing is the Berman–Garay phase-king Byzantine agreement algorithm
// for ℓ processes with unique identifiers, tolerating t faults when
// ℓ > 4t. It runs t+1 phases of two rounds each (a preference-exchange
// round and a king round) with constant-size messages — the polynomial
// counterpoint to EIG, used as a second substrate for the transformation
// (T(PhaseKing) then requires ℓ > 4t) and in the ablation benches.
type PhaseKing struct {
	l, t         int
	domain       []hom.Value
	defaultValue hom.Value
}

var _ Algorithm = (*PhaseKing)(nil)

// NewPhaseKing builds a phase-king instance for l processes tolerating t
// faults over the given domain (nil means binary {0,1}).
func NewPhaseKing(l, t int, domain []hom.Value) (*PhaseKing, error) {
	if t < 0 {
		return nil, ErrBadFaults
	}
	if l <= 4*t {
		return nil, ErrPhaseKingResilience
	}
	if domain == nil {
		domain = hom.DefaultDomain()
	}
	if err := validateDomain(domain); err != nil {
		return nil, err
	}
	return &PhaseKing{l: l, t: t, domain: domain, defaultValue: domain[0]}, nil
}

// Name implements Algorithm.
func (pk *PhaseKing) Name() string { return "phase-king" }

// Processes implements Algorithm.
func (pk *PhaseKing) Processes() int { return pk.l }

// Faults implements Algorithm.
func (pk *PhaseKing) Faults() int { return pk.t }

// DecisionRound implements Algorithm: 2 rounds per phase, t+1 phases.
func (pk *PhaseKing) DecisionRound() int { return 2 * (pk.t + 1) }

// pkState is the phase-king process state.
type pkState struct {
	id      hom.Identifier
	pref    hom.Value
	maj     hom.Value // majority value from the exchange round of the current phase
	mult    int       // its multiplicity
	decided hom.Value
	key     string
}

// Key implements msg.Payload.
func (s *pkState) Key() string { return s.key }

func freezePK(s *pkState) *pkState {
	var b strings.Builder
	b.WriteString("pkstate|")
	b.WriteString(strconv.Itoa(int(s.id)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(s.pref)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(s.maj)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(s.mult))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(s.decided)))
	s.key = b.String()
	return s
}

// Init implements Algorithm.
func (pk *PhaseKing) Init(id hom.Identifier, v hom.Value) State {
	return freezePK(&pkState{id: id, pref: pk.clampValue(v), maj: hom.NoValue, decided: hom.NoValue})
}

func (pk *PhaseKing) clampValue(v hom.Value) hom.Value {
	return pk.domain[valueIndex(pk.domain, v)]
}

// PKPref is the exchange-round payload (round 2k−1 of phase k).
type PKPref struct {
	Phase int
	Val   hom.Value
}

// Key implements msg.Payload.
func (p PKPref) Key() string { return msg.ScratchKey(p) }

// BuildKey implements msg.ScratchKeyer.
func (p PKPref) BuildKey(kb *msg.KeyBuilder) { kb.Reset("pkpref").Int(p.Phase).Value(p.Val) }

// PKKing is the king-round payload (round 2k of phase k), sent only by the
// phase's king.
type PKKing struct {
	Phase int
	Val   hom.Value
}

// Key implements msg.Payload.
func (p PKKing) Key() string { return msg.ScratchKey(p) }

// BuildKey implements msg.ScratchKeyer.
func (p PKKing) BuildKey(kb *msg.KeyBuilder) { kb.Reset("pkking").Int(p.Phase).Value(p.Val) }

// phaseOf maps a round 1..2(t+1) to its phase 1..t+1 and whether it is the
// king round.
func phaseOf(round int) (phase int, king bool) {
	phase = (round + 1) / 2
	king = round%2 == 0
	return phase, king
}

// Message implements Algorithm.
func (pk *PhaseKing) Message(s State, round int) msg.Payload {
	st, ok := s.(*pkState)
	if !ok || round > pk.DecisionRound() {
		return nil
	}
	phase, king := phaseOf(round)
	if !king {
		return PKPref{Phase: phase, Val: st.pref}
	}
	if st.id == hom.Identifier(phase) {
		return PKKing{Phase: phase, Val: st.maj}
	}
	return nil
}

// Transition implements Algorithm.
func (pk *PhaseKing) Transition(s State, round int, received []msg.Message) State {
	st, ok := s.(*pkState)
	if !ok || round > pk.DecisionRound() {
		return s
	}
	next := &pkState{id: st.id, pref: st.pref, maj: st.maj, mult: st.mult, decided: st.decided}
	phase, king := phaseOf(round)
	if !king {
		// Exchange round: tally preferences, one per identifier, by
		// domain index (an out-of-domain value counts as the default).
		// The most frequent value wins; ties go to the smallest, wherever
		// the domain lists it.
		counts := make([]int, len(pk.domain))
		for _, m := range received {
			if p, ok := m.Body.(PKPref); ok && p.Phase == phase {
				counts[valueIndex(pk.domain, p.Val)]++
			}
		}
		next.maj, next.mult = pk.defaultValue, 0
		for i, c := range counts {
			if c > next.mult || c > 0 && c == next.mult && pk.domain[i] < next.maj {
				next.maj, next.mult = pk.domain[i], c
			}
		}
		return freezePK(next)
	}
	// King round: adopt own majority if it is overwhelming, otherwise the
	// king's value (or the default if the king stayed silent or
	// equivocated away).
	kingVal := pk.defaultValue
	for _, m := range received {
		if p, ok := m.Body.(PKKing); ok && p.Phase == phase && m.ID == hom.Identifier(phase) {
			kingVal = pk.clampValue(p.Val)
			break
		}
	}
	if 2*next.mult > pk.l+2*pk.t { // mult > l/2 + t
		next.pref = next.maj
	} else {
		next.pref = kingVal
	}
	if round == pk.DecisionRound() && next.decided == hom.NoValue {
		next.decided = next.pref
	}
	return freezePK(next)
}

// Decide implements Algorithm.
func (pk *PhaseKing) Decide(s State) hom.Value {
	st, ok := s.(*pkState)
	if !ok {
		return hom.NoValue
	}
	return st.decided
}
