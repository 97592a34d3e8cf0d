// Package synchom implements the paper's Figure-3 transformation T(A):
// given any synchronous Byzantine agreement algorithm A for ℓ processes
// with unique identifiers (in the Figure-2 functional form of package
// classical), T(A) solves synchronous Byzantine agreement for n ≥ ℓ
// processes sharing ℓ identifiers, tolerating t faults whenever A
// tolerates t faults with ℓ processes — in particular ℓ > 3t with EIG
// (Proposition 2, Theorem 3). The transformation works for innumerate
// processes: it only ever counts distinct identifiers.
//
// Three simulation rounds realise one round of A (a "phase"):
//
//  1. Selection round: the processes of each identifier group broadcast
//     their current A-state and deterministically adopt one of the states
//     proposed under their own identifier. All-correct groups therefore
//     agree on a common state; groups containing a Byzantine process may
//     diverge, which is indistinguishable from a single Byzantine process
//     in the simulated execution.
//  2. Deciding round: processes broadcast decide(s); a process decides any
//     value reported by t+1 distinct identifiers (at least one of which is
//     an all-correct group). This lets a correct process decide even when
//     its own group is contaminated.
//  3. Running round: processes broadcast M(s, r) and apply δ, after
//     removing all messages of any identifier that sent two or more
//     distinct messages this round (a group that equivocated exposes
//     itself as Byzantine — Figure 3, lines 12–14).
package synchom

import (
	"errors"
	"fmt"
	"sort"

	"homonyms/internal/classical"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// Errors returned by the constructor.
var (
	ErrNilAlgorithm = errors.New("synchom: algorithm must not be nil")
	ErrIdentifiers  = errors.New("synchom: algorithm must be configured for exactly L processes")
)

// RoundsPerPhase is the simulation cost of one round of the underlying
// algorithm.
const RoundsPerPhase = 3

// Rounds returns the number of simulation rounds T(A) needs to guarantee
// decision: three per round of A, plus one final deciding round in the
// following phase for processes in contaminated groups (covered because
// deciding rounds repeat every phase; we give the exact bound 3·R(A)+2,
// the deciding round of phase R(A)+1).
func Rounds(alg classical.Algorithm) int {
	return RoundsPerPhase*alg.DecisionRound() + 2
}

// selPayload carries a state proposal in a selection round. Like every
// payload here it implements msg.ScratchKeyer, so the engines build its
// key in round scratch (the embedded state/body key stays a cached
// string on the inner type).
type selPayload struct {
	phase int
	state classical.State
}

func (p selPayload) BuildKey(kb *msg.KeyBuilder) {
	kb.Reset("sel").Int(p.phase).Nested(p.state)
}

func (p selPayload) Key() string { return msg.ScratchKey(p) }

// decPayload carries a decision report in a deciding round.
type decPayload struct {
	phase int
	val   hom.Value
}

func (p decPayload) BuildKey(kb *msg.KeyBuilder) {
	kb.Reset("dec").Int(p.phase).Value(p.val)
}

func (p decPayload) Key() string { return msg.ScratchKey(p) }

// runPayload wraps the simulated algorithm's round message.
type runPayload struct {
	phase int
	body  msg.Payload
}

func (p runPayload) BuildKey(kb *msg.KeyBuilder) {
	kb.Reset("run").Int(p.phase).Nested(p.body)
}

func (p runPayload) Key() string { return msg.ScratchKey(p) }

// Process is the T(A) state machine for one process. It implements
// engine.Process.
type Process struct {
	alg      classical.Algorithm
	t        int
	id       hom.Identifier
	state    classical.State
	decision hom.Value
}

var _ engine.Process = (*Process)(nil)

// New returns a factory producing T(A) processes for the given parameters.
// The algorithm must be configured for exactly p.L processes and must
// tolerate p.T faults.
func New(alg classical.Algorithm, p hom.Params) (func(slot int) engine.Process, error) {
	if alg == nil {
		return nil, ErrNilAlgorithm
	}
	if alg.Processes() != p.L {
		return nil, fmt.Errorf("%w (algorithm has %d, L=%d)", ErrIdentifiers, alg.Processes(), p.L)
	}
	return func(int) engine.Process {
		return &Process{alg: alg, t: p.T, decision: hom.NoValue}
	}, nil
}

// Init implements engine.Process.
func (pr *Process) Init(ctx engine.Context) {
	pr.id = ctx.ID
	pr.state = pr.alg.Init(ctx.ID, ctx.Input)
}

// phasePos decomposes a simulation round into (phase, position) with
// position 0 = selection, 1 = deciding, 2 = running.
func phasePos(round int) (phase, pos int) {
	return (round-1)/RoundsPerPhase + 1, (round - 1) % RoundsPerPhase
}

// Prepare implements engine.Process.
func (pr *Process) Prepare(round int) []msg.Send {
	phase, pos := phasePos(round)
	switch pos {
	case 0: // selection: share current state with the group (sent to all;
		// only own-identifier copies are considered on reception).
		return []msg.Send{msg.Broadcast(selPayload{phase: phase, state: pr.state})}
	case 1: // deciding: report decide(s) — may be ⊥; receivers ignore ⊥.
		val := pr.decision
		if val == hom.NoValue {
			val = pr.alg.Decide(pr.state)
		}
		return []msg.Send{msg.Broadcast(decPayload{phase: phase, val: val})}
	default: // running: one round of A.
		body := pr.alg.Message(pr.state, phase)
		if body == nil {
			return nil
		}
		return []msg.Send{msg.Broadcast(runPayload{phase: phase, body: body})}
	}
}

// Receive implements engine.Process.
func (pr *Process) Receive(round int, in *msg.Inbox) {
	phase, pos := phasePos(round)
	switch pos {
	case 0:
		pr.receiveSelection(phase, in)
	case 1:
		pr.receiveDeciding(phase, in)
	default:
		pr.receiveRunning(phase, in)
	}
}

// receiveSelection adopts the deterministically chosen state among those
// proposed under the process's own identifier (Figure 3, line 5: "s =
// deterministic choice of some element x.val such that x ∈ R and
// x.id = i"). We choose the proposal with the smallest canonical key.
// Self-delivery is reliable, so the candidate set is never empty.
func (pr *Process) receiveSelection(phase int, in *msg.Inbox) {
	var best classical.State
	lo, hi := in.IdentifierRange(pr.id)
	for i := lo; i < hi; i++ {
		sp, ok := in.BodyAt(i).(selPayload)
		if !ok || sp.phase != phase || sp.state == nil {
			continue
		}
		if best == nil || sp.state.Key() < best.Key() {
			best = sp.state
		}
	}
	if best != nil {
		pr.state = best
	}
}

// receiveDeciding decides any value reported by t+1 distinct identifiers
// (Figure 3, lines 8–9). At least one of those identifiers names an
// all-correct group, whose report is trustworthy.
func (pr *Process) receiveDeciding(phase int, in *msg.Inbox) {
	if pr.decision != hom.NoValue {
		return
	}
	support := make(map[hom.Value]map[hom.Identifier]bool)
	for i, k := 0, in.Len(); i < k; i++ {
		dp, ok := in.BodyAt(i).(decPayload)
		if !ok || dp.phase != phase || dp.val == hom.NoValue {
			continue
		}
		if support[dp.val] == nil {
			support[dp.val] = make(map[hom.Identifier]bool)
		}
		support[dp.val][in.SenderAt(i)] = true
	}
	candidates := make([]hom.Value, 0, len(support))
	for v, ids := range support {
		if len(ids) >= pr.t+1 {
			candidates = append(candidates, v)
		}
	}
	if len(candidates) == 0 {
		return
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	pr.decision = candidates[0]
}

// receiveRunning applies one transition of A after stripping equivocating
// identifier groups (Figure 3, lines 12–15). One pass over the sorted
// indexed view: messages arrive grouped by identifier, so a group that
// contributed two or more valid run payloads is detected by adjacency.
func (pr *Process) receiveRunning(phase int, in *msg.Inbox) {
	var filtered []msg.Message
	last := hom.Identifier(0) // identifier of the current group (0 = none)
	groupValid := 0           // valid run payloads seen for this group
	var groupBody msg.Payload // the single valid payload, if groupValid == 1
	flush := func() {
		if groupValid == 1 {
			filtered = append(filtered, msg.Message{ID: last, Body: groupBody})
		}
	}
	for i, k := 0, in.Len(); i < k; i++ {
		id := in.SenderAt(i)
		if id != last {
			flush()
			last, groupValid, groupBody = id, 0, nil
		}
		rp, ok := in.BodyAt(i).(runPayload)
		if !ok || rp.phase != phase || rp.body == nil {
			continue
		}
		groupValid++
		groupBody = rp.body
	}
	flush()
	pr.state = pr.alg.Transition(pr.state, phase, filtered)
}

// Decision implements engine.Process.
func (pr *Process) Decision() (hom.Value, bool) {
	return pr.decision, pr.decision != hom.NoValue
}

// CloneProcess implements engine.Cloner. The algorithm is shared and
// stateless and states are immutable values, so a struct copy is an
// independent fork.
func (pr *Process) CloneProcess() engine.Process {
	cp := *pr
	return &cp
}

// StateFingerprint implements engine.StateHasher: the canonical state key
// plus the decision determine all future behaviour (alg, t and id are
// constant across a class).
func (pr *Process) StateFingerprint() msg.StateHash {
	h := msg.NewStateHash()
	if pr.state != nil {
		h = h.String(pr.state.Key())
	}
	return h.Int(int(pr.decision))
}
