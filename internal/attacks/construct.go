// Package attacks implements the paper's lower-bound constructions as
// executable experiments. Each attack takes a concrete algorithm
// (instantiated, when necessary, outside its guaranteed parameter region
// by a constructor that checks no condition: psynchom.New, psyncnum.New,
// classical.NewEIGUnchecked) and produces the exact execution from the
// corresponding proof, then reports the observed violation of validity,
// agreement or termination:
//
//   - Covering (Figure 1 / Proposition 1): a 2n-process synchronous
//     covering system for ℓ = 3t whose three overlapping views cannot all
//     satisfy the specification.
//   - Partition (Figure 4 / Proposition 4): the partially synchronous
//     partition execution γ for 3t < ℓ ≤ (n+3t)/2, with the Byzantine
//     processes replaying two internal executions α and β.
//   - CloneCollapse (Theorem 19): with restricted Byzantine processes and
//     innumerate receivers, a homonym group with equal inputs behaves as
//     one process, reducing ℓ ≤ 3t homonym systems to n = ℓ ≤ 3t classical
//     systems.
//   - Mirror (Proposition 16 / Lemma 17): with ℓ ≤ t, a Byzantine twin
//     makes input-adjacent configurations indistinguishable to everyone
//     else.
//   - StarveLeader / LockSplit: the ablation adversaries showing why the
//     Figure-5 algorithm needs its decide relay and its vote superround.
//
// Every construction is an engine execution.
package attacks

import (
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// construct runs one construction's execution on the engine: cfg with
// N = len(cfg.Assignment). Each of cfg.NewProcess's processes is
// initialised with cfg.Params as given — the parameters the algorithm
// believes in, which a covering system sets apart from the execution's
// own: its 2n processes each believe they live in an n-process system.
func construct(cfg engine.Config) (*engine.Result, error) {
	algParams, factory := cfg.Params, cfg.NewProcess
	cfg.Params.N = len(cfg.Assignment)
	cfg.NewProcess = func(slot int) engine.Process { return believer{factory(slot), algParams} }
	return engine.Run(cfg)
}

// believer initialises its process with the parameters it believes in.
type believer struct {
	engine.Process
	params hom.Params
}

func (b believer) Init(ctx engine.Context) {
	ctx.Params = b.params
	b.Process.Init(ctx)
}

// Release forwards engine.Releaser.
func (b believer) Release() {
	if r, ok := b.Process.(engine.Releaser); ok {
		r.Release()
	}
}

// silence corrupts the holders of identifiers lo..hi, which send nothing,
// and records off the rushing View every round's sends of the correct
// holders of identifiers 1..record: trace[r-1][id-1] is what identifier
// id's holders sent in round r, in slot order.
type silence struct {
	lo, hi hom.Identifier
	record int
	trace  [][][]msg.Send
}

var _ engine.Adversary = (*silence)(nil)

// Corrupt implements engine.Adversary.
func (a *silence) Corrupt(_ hom.Params, ids hom.Assignment, _ []hom.Value) []int {
	var out []int
	for s, id := range ids {
		if a.lo <= id && id <= a.hi {
			out = append(out, s)
		}
	}
	return out
}

// Sends implements engine.Adversary: it records the round once and sends
// nothing.
func (a *silence) Sends(round, _ int, view *engine.View) []msg.TargetedSend {
	if len(a.trace) < round {
		perID := make([][]msg.Send, a.record)
		for id := range perID {
			for _, s := range view.GroupMembers(hom.Identifier(id + 1)) {
				perID[id] = append(perID[id], view.SendsOf(int(s))...)
			}
		}
		a.trace = append(a.trace, perID)
	}
	return nil
}

// Drop implements engine.Adversary: nothing is lost.
func (a *silence) Drop(int, int, int) bool { return false }
