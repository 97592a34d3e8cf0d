package engine

import (
	"errors"
	"fmt"

	"homonyms/internal/msg"
)

// StateRep owns how correct-process state is held and stepped — the
// engine's second seam. The kernel keeps the round lifecycle (adversary,
// routing, budgets, invariants); the representation supplies the two
// process-facing phases: collecting a round's sends (PrepareRound) and
// delivering its inboxes (DeliverRound). Concrete holds one Process state
// machine per slot; Counting folds many indistinguishable homonyms into
// one counted state.
//
// Contract: PrepareRound registers the sends of every live correct slot
// with the engine in ascending slot order — once per slot, or, in a
// weighted round, once for a group of indistinguishable slots with their
// number as the multiplicity; DeliverRound draws at most one inbox per
// correct slot from e.Router() — one per stepping class — and recycles
// each once its Receive returned. Stop tears the representation down
// (releasing processes); it is called exactly once, on every Run exit
// path, and must tolerate Start never having been called.
type StateRep interface {
	// Describe names the representation for diagnostics.
	Describe() string
	// Start binds the representation to its engine before round 1.
	Start(e *Engine) error
	// PrepareRound collects each live correct slot's sends (phase 1).
	PrepareRound(round int)
	// DeliverRound hands each live correct slot its inbox and records
	// decisions via e.recordDecision (phase 4).
	DeliverRound(round int)
	// Stop tears the representation down after the execution.
	Stop()
}

// ErrUnknownStateRep is returned by StateRepByName for a name outside
// the CLI/scenario vocabulary.
var ErrUnknownStateRep = errors.New("engine: unknown state representation")

// StateRepByName resolves a state representation from its CLI/scenario
// name: "" and "concrete" select Concrete, and "counting" selects
// Counting — with a class budget when maxClasses > 0 (runs that split
// past the budget fail with a *DegeneracyError). maxClasses is rejected
// for Concrete, which has no class notion.
func StateRepByName(name string, maxClasses int) (StateRep, error) {
	switch name {
	case "", "concrete":
		if maxClasses > 0 {
			return nil, fmt.Errorf("%w: %q takes no class budget", ErrUnknownStateRep, name)
		}
		return Concrete(), nil
	case "counting":
		if maxClasses > 0 {
			return CountingLimited(maxClasses), nil
		}
		return Counting(), nil
	}
	return nil, fmt.Errorf("%w: %q (want concrete or counting)", ErrUnknownStateRep, name)
}

// Cloner is the optional Process extension that makes a protocol
// eligible for class collapse under the counting state representation:
// CloneProcess must return an independent deep copy of the process —
// same observable behaviour from the current state, no shared mutable
// storage — so a split equivalence class can fork its state machine at
// the divergence point. Protocols without it still run under Counting,
// one class per slot (no collapse, no splits).
type Cloner interface {
	CloneProcess() Process
}

// StateHasher is the optional Process extension that enables class
// re-unification under the counting state representation: the
// fingerprint must fold the process's entire observable state —
// everything its future Prepare/Receive/Decision behaviour depends on,
// including the decision itself — using canonical keys, never
// process-local intern IDs (see msg.StateHash). Two processes of one
// identifier group with equal fingerprints are folded back into one
// class.
type StateHasher interface {
	StateFingerprint() msg.StateHash
}

// processOwner is a StateRep that builds, initialises and holds its own
// processes in Start: newEngine skips the per-slot factory loop and the
// per-slot process table for it, and Engine.Process asks it instead.
type processOwner interface {
	// processAt returns the process standing for the slot (nil when
	// corrupted, or before Start).
	processAt(slot int) Process
}

// repFailer lets a StateRep abort the execution: the engine checks Err
// after every DeliverRound and surfaces the error from Run.
type repFailer interface {
	Err() error
}

// concreteRep is the concrete representation: one Process per slot,
// stepped in place.
type concreteRep struct {
	e *Engine
}

// Concrete returns the default state representation: one process state
// machine per slot, stepped sequentially in slot order.
func Concrete() StateRep { return &concreteRep{} }

func (r *concreteRep) Describe() string { return "concrete" }

func (r *concreteRep) Start(e *Engine) error {
	r.e = e
	return nil
}

func (r *concreteRep) PrepareRound(round int) {
	e := r.e
	for s := 0; s < e.n; s++ {
		if !e.isBad[s] && !e.halted(s, round) {
			e.send(s, 1, e.procs[s].Prepare(round))
		}
	}
}

func (r *concreteRep) DeliverRound(round int) {
	e := r.e
	for to := 0; to < e.n; to++ {
		// A crashed or stalled process takes no step: the router
		// suppressed or held everything sent to it.
		if e.isBad[to] || e.halted(to, round) {
			continue
		}
		p := e.procs[to]
		in := e.router.inbox(to)
		p.Receive(round, in)
		in.Recycle()
		if !e.decided(to) {
			v, ok := p.Decision()
			e.recordDecision(to, v, ok, round)
		}
	}
}

func (r *concreteRep) Stop() {
	if r.e == nil {
		return
	}
	for _, p := range r.e.procs {
		if p != nil {
			if rel, ok := p.(Releaser); ok {
				rel.Release()
			}
		}
	}
}
