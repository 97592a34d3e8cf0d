// Package classical implements synchronous Byzantine agreement algorithms
// for the classical model with unique identifiers (ℓ = n), expressed in
// exactly the functional form of the paper's Figure 2: a state set, an
// initial-state function init(i, v), a per-round message function M(s, r),
// a transition function δ(s, r, R) and a decision function decide(s).
//
// These algorithms play two roles in the reproduction:
//
//   - They are the inputs "A" of the paper's Figure-3 transformation T(A)
//     (package synchom), which lifts any such algorithm to a system of n
//     processes with ℓ identifiers.
//   - They are the classical baselines (ℓ = n) that the homonym algorithms
//     are compared against in the benchmark harness.
//
// Two algorithms are provided: exponential information gathering (EIG,
// optimal resilience n > 3t, t+1 rounds, exponential-size messages) and
// Phase King (Berman–Garay, n > 4t, 2(t+1) rounds, constant-size
// messages).
package classical

import (
	"errors"
	"fmt"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// State is an algorithm-local state. States travel on the wire during the
// transformation's selection rounds, so they are payloads: two states are
// equal exactly when their keys are equal. Implementations must be
// immutable once returned.
type State interface {
	msg.Payload
}

// Algorithm is a synchronous Byzantine agreement algorithm for ℓ processes
// with unique identifiers 1..ℓ, in the Figure-2 form. Implementations are
// configured (ℓ, t, domain) at construction and are stateless afterwards:
// all execution state lives in State values, so a single Algorithm value
// can drive any number of concurrent executions.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Processes returns the number of processes ℓ the instance is
	// configured for.
	Processes() int
	// Faults returns the fault bound t the instance is configured for.
	Faults() int
	// DecisionRound returns the round by the end of which every correct
	// process has decided in every execution.
	DecisionRound() int
	// Init returns the initial state of the process with identifier id
	// and input v — the paper's init(i, v).
	Init(id hom.Identifier, v hom.Value) State
	// Message returns the payload to broadcast in the given round from
	// state s — the paper's M(s, r). A nil payload means the process
	// sends nothing this round.
	Message(s State, round int) msg.Payload
	// Transition computes the successor state after receiving, in the
	// given round, at most one message per identifier — the paper's
	// δ(s, r, R). Callers guarantee the one-per-identifier filtering
	// (receivers discard identifiers that equivocated within the round).
	Transition(s State, round int, received []msg.Message) State
	// Decide returns the decision in state s, or hom.NoValue — the
	// paper's decide(s). Once non-⊥ it must stay constant over
	// transitions.
	Decide(s State) hom.Value
}

// Validation errors shared by the algorithm constructors.
var (
	ErrEIGResilience       = errors.New("classical: EIG requires l > 3t")
	ErrEIGTooLarge         = errors.New("classical: EIG paths must pack into 64 bits (instance infeasibly large)")
	ErrPhaseKingResilience = errors.New("classical: phase king requires l > 4t")
	ErrBadDomain           = errors.New("classical: domain must be non-empty with non-negative values")
	ErrBadFaults           = errors.New("classical: need t >= 0")
)

func validateDomain(domain []hom.Value) error {
	if len(domain) == 0 {
		return ErrBadDomain
	}
	for _, v := range domain {
		if v < 0 {
			return fmt.Errorf("%w (value %d)", ErrBadDomain, v)
		}
	}
	return nil
}

// FilterEquivocators keeps at most one message per identifier: if an
// identifier delivered two or more distinct payloads this round, all of
// its messages are removed (the receiver knows the identifier misbehaved —
// paper Figure 3, lines 12–14). The result is sorted by identifier. One
// pass over the indexed sorted view: messages arrive grouped by
// identifier, so a singleton group is detected by adjacency without
// materialising the inbox's []Message view.
func FilterEquivocators(in *msg.Inbox) []msg.Message {
	var out []msg.Message
	k := in.Len()
	for i := 0; i < k; {
		id := in.SenderAt(i)
		j := i + 1
		for j < k && in.SenderAt(j) == id {
			j++
		}
		if j == i+1 {
			out = append(out, in.MessageAt(i))
		}
		i = j
	}
	return out
}

// Process adapts an Algorithm to the simulation kernel for the classical
// setting ℓ = n (every process holds a unique identifier). It performs the
// receiver-side equivocation filtering and stops broadcasting once the
// algorithm's decision round has passed.
type Process struct {
	alg      Algorithm
	state    State
	decision hom.Value
}

var _ engine.Process = (*Process)(nil)

// NewProcess returns a kernel process driving one fresh instance of alg.
func NewProcess(alg Algorithm) *Process {
	return &Process{alg: alg, decision: hom.NoValue}
}

// Init implements engine.Process.
func (p *Process) Init(ctx engine.Context) {
	p.state = p.alg.Init(ctx.ID, ctx.Input)
}

// Prepare implements engine.Process.
func (p *Process) Prepare(round int) []msg.Send {
	if round > p.alg.DecisionRound() {
		return nil
	}
	body := p.alg.Message(p.state, round)
	if body == nil {
		return nil
	}
	return []msg.Send{msg.Broadcast(body)}
}

// Receive implements engine.Process.
func (p *Process) Receive(round int, in *msg.Inbox) {
	if round > p.alg.DecisionRound() {
		return
	}
	p.state = p.alg.Transition(p.state, round, FilterEquivocators(in))
	if p.decision == hom.NoValue {
		p.decision = p.alg.Decide(p.state)
	}
}

// Decision implements engine.Process.
func (p *Process) Decision() (hom.Value, bool) {
	return p.decision, p.decision != hom.NoValue
}

// CloneProcess implements engine.Cloner. The algorithm is shared and
// stateless and states are immutable values, so a struct copy is an
// independent fork.
func (p *Process) CloneProcess() engine.Process {
	cp := *p
	return &cp
}

// StateFingerprint implements engine.StateHasher: the canonical state key
// plus the decision determine all future behaviour.
func (p *Process) StateFingerprint() msg.StateHash {
	h := msg.NewStateHash()
	if p.state != nil {
		h = h.String(p.state.Key())
	}
	return h.Int(int(p.decision))
}
