package psynchom

import (
	"fmt"

	"homonyms/internal/authbcast"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
)

// init registers the Figure-5 algorithm with the fuzzer's protocol
// registry. The factory, New, checks no condition: the fuzzer probes the
// 3t < l, 2l <= n+3t gap where the paper's Figure-4 partition
// argument predicts failures.
func init() {
	protoreg.Register(protoreg.Protocol{
		Name: "psynchom",
		Claims: func(p hom.Params) (bool, string) {
			if 2*p.L > p.N+3*p.T {
				return true, fmt.Sprintf("2l = %d > n+3t = %d (Theorem 13)", 2*p.L, p.N+3*p.T)
			}
			return false, fmt.Sprintf("2l = %d <= n+3t = %d (Proposition 4 region)", 2*p.L, p.N+3*p.T)
		},
		Constructible: func(p hom.Params) (bool, string) {
			if p.L <= 3*p.T {
				return false, "the authenticated-broadcast layer needs l > 3t"
			}
			return true, "ok"
		},
		New: func(p hom.Params) (func(slot int) engine.Process, error) {
			return New(p, Options{}), nil
		},
		Rounds: hom.PhaseRounds,
		Forge:  forge,
	})
}

// forge builds well-formed Figure-5 traffic carrying v: a decide, a
// proper-set report, and vote/lock tuples wrapped in the broadcast
// layer's init/echo envelopes under the current phase's leader
// identifier.
func forge(p hom.Params, round int, v hom.Value) []msg.Payload {
	phase, _ := hom.PhasePos(round)
	sr := hom.Superround(round)
	leader := hom.LeaderID(phase, p.L)
	vote := VotePayload{Phase: phase, Val: v}
	lock := LockPayload{Phase: phase, Val: v}
	return []msg.Payload{
		DecidePayload{Val: v},
		ProperPayload{V: hom.NewValueSet(v)},
		authbcast.InitPayload{Body: vote},
		authbcast.EchoPayload{Body: vote, SR: sr, ID: leader},
		authbcast.EchoPayload{Body: lock, SR: sr, ID: leader},
	}
}
