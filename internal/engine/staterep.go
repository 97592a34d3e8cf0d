package engine

import "homonyms/internal/msg"

// StateRep owns how correct-process state is held and stepped — the
// engine's second seam. The kernel keeps the round lifecycle (adversary,
// routing, budgets, invariants); the representation supplies the two
// process-facing phases: collecting a round's sends (PrepareRound) and
// delivering its inboxes (DeliverRound). The engine has one
// representation, Counting, which folds indistinguishable homonyms into
// one counted state; Concrete is the same representation with every
// class one slot. A StateRep of one's own wraps one of the two and
// forwards its five methods.
//
// Contract: Start binds the representation's processes to the engine
// (Engine.Process reads them); PrepareRound registers the sends of every
// live correct slot with the engine in ascending slot order — once per
// slot, or, in a weighted round, once for a group of indistinguishable
// slots with their number as the multiplicity; DeliverRound draws at
// most one inbox per correct slot from e.Router() — one per stepping
// class — and recycles each once its Receive returned. Stop tears the representation down
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

// Cloner is the optional Process extension that makes a protocol
// eligible for class collapse under the counting state representation:
// CloneProcess must return an independent deep copy of the process —
// same observable behaviour from the current state, no shared mutable
// storage — so a split equivalence class can fork its state machine at
// the divergence point. Protocols without it run one class per slot (no
// collapse, no splits).
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
