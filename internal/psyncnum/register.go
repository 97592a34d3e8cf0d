package psyncnum

import (
	"fmt"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/numbcast"
	"homonyms/internal/protoreg"
)

// init registers the Figure-7 algorithm with the fuzzer's protocol
// registry. The factory, New, checks no condition: the fuzzer probes
// l <= t (the Proposition-16 mirror region) and the wrong model switches
// (innumerate reception, unrestricted Byzantine processes), all of which
// the registry classifies as expected-failure territory.
func init() {
	protoreg.Register(protoreg.Protocol{
		Name: "psyncnum",
		Claims: func(p hom.Params) (bool, string) {
			if !p.Numerate || !p.RestrictedByzantine {
				return false, "Figure 7 needs numerate reception and restricted Byzantine processes"
			}
			if p.N <= 3*p.T {
				return false, fmt.Sprintf("n = %d <= 3t = %d", p.N, 3*p.T)
			}
			if p.T > 0 && p.L <= p.T {
				return false, fmt.Sprintf("l = %d <= t = %d (Proposition 16 region)", p.L, p.T)
			}
			return true, fmt.Sprintf("l = %d > t = %d (Theorems 14/15)", p.L, p.T)
		},
		Constructible: func(p hom.Params) (bool, string) {
			if p.N <= 3*p.T {
				return false, "the multiplicity-broadcast layer needs n > 3t"
			}
			return true, "ok"
		},
		New: func(p hom.Params) (func(slot int) engine.Process, error) {
			return New(p), nil
		},
		Rounds: hom.PhaseRounds,
		Forge:  forge,
	})
}

// forge builds one well-formed Figure-7 envelope carrying v: a forged
// propose init, a vote echo claiming n-t multiplicity under the current
// leader identifier, and a proper-set report.
func forge(p hom.Params, round int, v hom.Value) []msg.Payload {
	phase, _ := hom.PhasePos(round)
	sr := hom.Superround(round)
	leader := hom.LeaderID(phase, p.L)
	bundle := numbcast.NewBundle(
		[]numbcast.InitTuple{{Body: ProposePayload{Phase: phase, Val: v}}},
		[]numbcast.EchoTuple{{H: leader, A: p.N - p.T, Body: VotePayload{Phase: phase, Val: v}, K: sr}},
	)
	return []msg.Payload{Envelope{Parts: []msg.Payload{bundle, ProperPayload{V: hom.NewValueSet(v)}}}}
}
