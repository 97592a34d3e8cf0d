package synchom

import (
	"fmt"

	"homonyms/internal/classical"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
)

// init registers T(EIG) with the fuzzer's protocol registry. The factory
// uses the unchecked EIG constructor on purpose: the fuzzer probes the
// l <= 3t region where the paper's covering argument (Proposition 1)
// predicts — and the registry classification expects — failures.
func init() {
	protoreg.Register(protoreg.Protocol{
		Name: "synchom",
		Claims: func(p hom.Params) (bool, string) {
			if p.Synchrony != hom.Synchronous {
				return false, "T(EIG) is a synchronous transformation"
			}
			if p.T == 0 {
				return true, "t = 0: fault-free"
			}
			if p.L > 3*p.T {
				return true, fmt.Sprintf("l = %d > 3t = %d (Theorem 3)", p.L, 3*p.T)
			}
			return false, fmt.Sprintf("l = %d <= 3t = %d (Proposition 1 region)", p.L, 3*p.T)
		},
		Constructible: func(p hom.Params) (bool, string) {
			if p.Synchrony != hom.Synchronous {
				return false, "T(EIG) runs in the synchronous model only"
			}
			if p.L < 2 {
				return false, "EIG needs at least 2 identifiers"
			}
			return true, "ok"
		},
		New: func(p hom.Params) (func(slot int) engine.Process, error) {
			alg, err := classical.NewEIGUnchecked(p.L, p.T, p.EffectiveDomain())
			if err != nil {
				return nil, err
			}
			return New(alg, p)
		},
		Rounds: func(p hom.Params, _ int) int {
			alg, err := classical.NewEIGUnchecked(p.L, p.T, p.EffectiveDomain())
			if err != nil {
				return RoundsPerPhase * (p.T + 3)
			}
			return Rounds(alg) + RoundsPerPhase
		},
		Forge: func(p hom.Params, round int, v hom.Value) []msg.Payload {
			phase, _ := simPos(round)
			// Decision reports are the transformation's forgeable surface:
			// they are plain (phase, value) pairs counted by distinct
			// identifiers in the deciding round.
			return []msg.Payload{decPayload{phase: phase, val: v}}
		},
	})
}
