// Package core is the public façade of the library: it selects the right
// agreement algorithm for a model instance according to the paper's
// Table 1, assembles executions, and reports verdicts. Downstream users
// interact with this package (plus hom for the model types); the
// algorithm packages stay usable directly for fine-grained control.
//
// Selection rules (Table 1): hom.Params.Row names the row, and each
// solvable row runs its protoreg entry.
//
//   - restricted Byzantine processes + numerate correct processes, or
//     numerate correct processes at t = 0: the Figure-7 algorithm
//     (psyncnum) whenever ℓ > t, in either timing model;
//   - synchronous, otherwise: the Figure-3 transformation over EIG
//     (synchom) whenever ℓ > 3t, so any ℓ at t = 0;
//   - partially synchronous, otherwise: the Figure-5 algorithm (psynchom)
//     whenever 2ℓ > n+3t, so 2ℓ > n at t = 0.
package core

import (
	"fmt"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/protoreg"
	"homonyms/internal/trace"

	// The algorithm packages register the protoreg entries Select runs.
	_ "homonyms/internal/psynchom"
	_ "homonyms/internal/psyncnum"
	_ "homonyms/internal/synchom"
)

// AlgorithmID names the algorithm selected for a model instance.
type AlgorithmID string

// The algorithms the façade can select.
const (
	AlgSyncTransformEIG AlgorithmID = "sync-transform-eig"  // Figure 3 over EIG
	AlgPsyncHomonym     AlgorithmID = "psync-homonym"       // Figure 5
	AlgNumerate         AlgorithmID = "numerate-restricted" // Figure 7
)

// rowAlgorithms names, per solvable Table-1 row, the protoreg entry that
// solves it and the AlgorithmID the façade reports for it.
var rowAlgorithms = [...]struct {
	entry string
	id    AlgorithmID
}{
	hom.RowNumerate: {"psyncnum", AlgNumerate},
	hom.RowSync:     {"synchom", AlgSyncTransformEIG},
	hom.RowPsync:    {"psynchom", AlgPsyncHomonym},
}

// Errors returned by the façade.
var (
	// ErrUnsolvable reports parameters outside Table 1's solvable region;
	// errors.Is(err, hom.ErrUnsolvable) also matches.
	ErrUnsolvable = hom.ErrUnsolvable
)

// Selection is the result of algorithm selection: a process factory plus
// metadata for budgeting an execution.
type Selection struct {
	Algorithm AlgorithmID
	// NewProcess builds one process per slot.
	NewProcess func(slot int) engine.Process
	// SuggestedRounds returns a round budget sufficient for decision
	// when message drops stop at the given GST round.
	SuggestedRounds func(gst int) int
}

// Select picks the agreement algorithm for the parameters' Table-1 row
// and builds it through the row's protoreg entry, or fails with
// ErrUnsolvable (wrapping the Table-1 reason) when the row's condition
// does not hold.
func Select(p hom.Params) (*Selection, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.Solvable() {
		return nil, fmt.Errorf("%w: %s", ErrUnsolvable, p.SolvabilityReason())
	}
	alg := rowAlgorithms[p.Row()]
	proto, _ := protoreg.Get(alg.entry)
	factory, err := proto.New(p)
	if err != nil {
		return nil, err
	}
	rounds := proto.Rounds
	return &Selection{
		Algorithm:       alg.id,
		NewProcess:      factory,
		SuggestedRounds: func(gst int) int { return rounds(p, gst) },
	}, nil
}

// Config assembles one agreement execution through the façade.
type Config struct {
	// Params fixes the model instance. Required.
	Params hom.Params
	// Assignment maps slots to identifiers; nil selects a round-robin
	// assignment.
	Assignment hom.Assignment
	// Inputs holds one proposal per slot. Required.
	Inputs []hom.Value
	// Adversary plays the Byzantine processes and the pre-GST message
	// drops; nil means a fault-free, loss-free run.
	Adversary engine.Adversary
	// GST is the first round with guaranteed delivery (partially
	// synchronous model); values below 1 are treated as 1.
	GST int
	// MaxRounds caps the execution; 0 selects the algorithm's suggested
	// budget for the configured GST.
	MaxRounds int
	// Faults optionally injects benign faults (crash/recovery windows,
	// omissions, duplication, replay — see package inject) into the
	// execution; nil means none. Faulted slots are exempt from the
	// verdict's properties, like corrupted ones.
	Faults *inject.Schedule
	// Invariants enables the engine's paranoid per-round self-checks
	// (engine.Config.Invariants).
	Invariants bool
	// MaxSends caps the execution's cumulative stamped sends; when the
	// budget is hit the run ends after the current round with
	// Result.Sim.Stopped = engine.StopMessageBudget instead of running
	// to MaxRounds. 0 = unlimited.
	MaxSends int
	// Deprecated: StateRep is ignored. Every execution runs under the
	// engine's one state representation, engine.Counting.
	StateRep string
}

// Result reports one façade execution.
type Result struct {
	// Algorithm that ran.
	Algorithm AlgorithmID
	// Sim is the raw execution result.
	Sim *engine.Result
	// Verdict holds the validity/agreement/termination checks.
	Verdict trace.Verdict
	// Decision is the common decided value when one exists.
	Decision hom.Value
	// Decided reports whether at least one correct process decided and
	// all deciders agreed.
	Decided bool
}

// Run selects the algorithm for cfg.Params and executes one instance
// through the unified round-core: one engine.Config, run by engine.Run.
func Run(cfg Config) (*Result, error) {
	sel, err := Select(cfg.Params)
	if err != nil {
		return nil, err
	}
	gst := max(cfg.GST, 1)
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = sel.SuggestedRounds(gst)
	}
	assignment := cfg.Assignment
	if assignment == nil {
		assignment = hom.RoundRobinAssignment(cfg.Params.N, cfg.Params.L)
	}
	ecfg := engine.Config{
		Params:     cfg.Params,
		Assignment: assignment,
		Inputs:     cfg.Inputs,
		NewProcess: sel.NewProcess,
		Adversary:  cfg.Adversary,
		GST:        gst,
		MaxRounds:  maxRounds,
		Faults:     cfg.Faults,
		MaxSends:   cfg.MaxSends,
		Invariants: cfg.Invariants,
	}
	res, err := engine.Run(ecfg)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Algorithm: sel.Algorithm,
		Sim:       res,
		Verdict:   trace.Check(res),
	}
	out.Decision, out.Decided = trace.DecidedValue(res)
	return out, nil
}

// Solvable re-exports the Table-1 characterisation for convenience.
func Solvable(p hom.Params) bool { return p.Solvable() }

// SolvabilityReason re-exports the Table-1 explanation.
func SolvabilityReason(p hom.Params) string { return p.SolvabilityReason() }

// RunUnanimous is a convenience wrapper running all processes with the
// same input. Invalid parameters fail with p.Validate's error before
// anything n-sized is built.
func RunUnanimous(p hom.Params, input hom.Value, adv engine.Adversary, gst int) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inputs := make([]hom.Value, p.N)
	for i := range inputs {
		inputs[i] = input
	}
	return Run(Config{Params: p, Inputs: inputs, Adversary: adv, GST: gst})
}
