// Package fuzz is a deterministic scenario fuzzer for the homonym model:
// it samples parameter tuples and adversary compositions, runs every
// registered protocol (package protoreg) through the simulation kernel,
// checks the target's correctness properties, and classifies failures as
// either expected lower-bound demonstrations (parameters outside the
// region the implementation claims, cross-checked against the Table-1
// characterisation that package solvability reproduces) or real
// violations that fail CI.
//
// Everything is deterministic in the campaign seed: scenario i of a
// campaign is a pure function of (seed, i), every scenario carries its
// own sub-seeds, and the per-scenario adversary RNG is threaded through
// the composed pieces (see package adversary), so campaigns are
// byte-identical across runs and across worker counts. Failing scenarios
// serialise to JSON seeds (testdata/) that replay exactly and shrink to
// minimal counterexamples.
package fuzz

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/exec"
	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
)

// Scenario is one fully specified fuzz execution: parameters, identifier
// assignment, inputs, round budget and the composed adversary. It is the
// unit of replay — the JSON encoding below is the regression-seed format.
type Scenario struct {
	Protocol   string `json:"protocol"`
	N          int    `json:"n"`
	L          int    `json:"l"`
	T          int    `json:"t"`
	Psync      bool   `json:"psync,omitempty"`
	Numerate   bool   `json:"numerate,omitempty"`
	Restricted bool   `json:"restricted,omitempty"`
	// Assignment selects the slot-to-identifier map: "roundrobin",
	// "stacked" or "random" (deterministic in AssignSeed).
	Assignment string `json:"assignment"`
	AssignSeed int64  `json:"assign_seed,omitempty"`
	// Inputs holds one proposal per slot.
	Inputs []int `json:"inputs"`
	// GST is the first round with guaranteed delivery; 1 in the
	// synchronous model.
	GST int `json:"gst"`
	// MaxRounds caps the execution; 0 selects the protocol's suggested
	// budget for the GST.
	MaxRounds int `json:"max_rounds,omitempty"`
	// AdvSeed seeds the per-scenario RNG threaded through the randomized
	// selector/behavior pieces.
	AdvSeed  int64        `json:"adv_seed,omitempty"`
	Selector SelectorSpec `json:"selector"`
	Behavior BehaviorSpec `json:"behavior"`
	Drops    DropSpec     `json:"drops"`
	// Faults is an optional injected fault schedule for correct slots:
	// crash/crash-recovery, send/receive omission, duplication, replay,
	// and — under the "esync" time model — delay/reorder/stall timing
	// faults (see package inject). Faults compose with the Byzantine
	// adversary above; Run decides whether the protocol's claims survive
	// the schedule (Byzantine-simulable faults within the t budget) or
	// are voided by it.
	Faults *inject.Schedule `json:"faults,omitempty"`
	// TimeModel selects the execution's time model: "" or "lockstep"
	// for the paper's round-by-round loop, "esync" for
	// engine.EventuallySynchronous with the three knobs below. Timing
	// faults in Faults require "esync".
	TimeModel string `json:"time_model,omitempty"`
	// Bound, Timeout and MaxAttempts are the esync timing-policy knobs
	// (see engine.TimingPolicy): post-GST delivery bound, retransmit
	// timeout (0 = no retransmission) and per-delivery attempts cap.
	Bound       int `json:"bound,omitempty"`
	Timeout     int `json:"timeout,omitempty"`
	MaxAttempts int `json:"max_attempts,omitempty"`
	// MaxSends caps the execution's cumulative stamped sends
	// (engine.Config.MaxSends); the run stops with
	// Result.Stopped = "message-budget" when it is reached. 0 =
	// unlimited.
	MaxSends int `json:"max_sends,omitempty"`
}

// SelectorSpec names the corruption selector: "none", "first", "random"
// or "slots" (explicit Slots list).
type SelectorSpec struct {
	Kind  string `json:"kind"`
	Slots []int  `json:"slots,omitempty"`
}

// BehaviorSpec names the Byzantine behavior: "silent", "crash", "noise",
// "equivocate", "keyequivocate", "mimicflood", "valueflood" (forged
// protocol payloads from the target's registry entry) or "script"
// (explicit per-round forged sends — the exhaustive explorer's
// counterexample format, see adversary.ScriptBehavior). Until > 0 wraps
// the behavior so it stops after that round; Repeat makes a script's
// last round repeat forever.
type BehaviorSpec struct {
	Kind   string                 `json:"kind"`
	Until  int                    `json:"until,omitempty"`
	Script []adversary.ScriptSend `json:"script,omitempty"`
	Repeat bool                   `json:"repeat,omitempty"`
	Span   int                    `json:"span,omitempty"`
}

// DropSpec names the pre-GST drop policy: "none", "random" (per-delivery
// probability Prob, hash-derived from Seed so decisions are a pure
// function of (round, from, to)), "targeted" (isolate Targets) or
// "script" (explicit suppressed edges, see adversary.ScriptDrops;
// Repeat extends the last scripted round's edges to every later round).
type DropSpec struct {
	Kind     string               `json:"kind"`
	Seed     int64                `json:"seed,omitempty"`
	Prob     float64              `json:"prob,omitempty"`
	Targets  []int                `json:"targets,omitempty"`
	Inbound  bool                 `json:"inbound,omitempty"`
	Outbound bool                 `json:"outbound,omitempty"`
	Edges    []adversary.DropEdge `json:"edges,omitempty"`
	Repeat   bool                 `json:"repeat,omitempty"`
	Span     int                  `json:"span,omitempty"`
}

// Params assembles the scenario's model parameters.
func (sc Scenario) Params() hom.Params {
	syn := hom.Synchronous
	if sc.Psync {
		syn = hom.PartiallySynchronous
	}
	return hom.Params{
		N: sc.N, L: sc.L, T: sc.T,
		Synchrony:           syn,
		Numerate:            sc.Numerate,
		RestrictedByzantine: sc.Restricted,
	}
}

// assignment builds the scenario's identifier assignment.
func (sc Scenario) assignment() (hom.Assignment, error) {
	switch sc.Assignment {
	case "roundrobin", "":
		return hom.RoundRobinAssignment(sc.N, sc.L), nil
	case "stacked":
		return hom.StackedAssignment(sc.N, sc.L), nil
	case "random":
		return hom.RandomAssignment(sc.N, sc.L, sc.AssignSeed), nil
	default:
		return nil, fmt.Errorf("fuzz: unknown assignment kind %q", sc.Assignment)
	}
}

// adversaryFor composes the scenario's adversary. The same per-scenario
// RNG is threaded through the selector and behavior; it is built only
// when one of them draws from it, since most scenarios never do. Drop
// policies stay hash-pure (see the adversary package comment).
func (sc Scenario) adversaryFor(proto protoreg.Protocol, p hom.Params) (engine.Adversary, error) {
	var shared *rand.Rand
	rng := func() *rand.Rand {
		if shared == nil {
			shared = adversary.NewRand(sc.AdvSeed)
		}
		return shared
	}

	var sel adversary.Selector
	switch sc.Selector.Kind {
	case "none", "":
	case "first":
		sel = adversary.FirstT{}
	case "random":
		sel = adversary.RandomT{Rand: rng()}
	case "slots":
		sel = adversary.Slots(sc.Selector.Slots)
	default:
		return nil, fmt.Errorf("fuzz: unknown selector kind %q", sc.Selector.Kind)
	}

	var beh adversary.Behavior
	switch sc.Behavior.Kind {
	case "silent", "":
		beh = adversary.Silent{}
	case "crash":
		beh = adversary.Crash{}
	case "noise":
		beh = adversary.Noise{Rand: rng()}
	case "equivocate":
		beh = adversary.Equivocate{Rand: rng()}
	case "keyequivocate":
		beh = adversary.KeyEquivocate{Rand: rng()}
	case "mimicflood":
		beh = adversary.MimicFlood{}
	case "valueflood":
		if proto.Forge == nil {
			beh = adversary.Silent{}
		} else {
			forge := proto.Forge
			beh = adversary.ValueFlood{
				Domain: p.EffectiveDomain(),
				Make:   func(round int, v hom.Value) []msg.Payload { return forge(p, round, v) },
			}
		}
	case "script":
		// Copy steps work without a Forge entry; forge steps need one
		// (ScriptBehavior skips them when Make is nil); Mimic steps need
		// their own process factory, independent of the engine's.
		script := &adversary.ScriptBehavior{
			Steps:  sc.Behavior.Script,
			Repeat: sc.Behavior.Repeat,
			Span:   sc.Behavior.Span,
		}
		if proto.Forge != nil {
			forge := proto.Forge
			script.Make = func(round int, v hom.Value) []msg.Payload { return forge(p, round, v) }
		}
		for _, st := range sc.Behavior.Script {
			if st.Mimic {
				factory, err := proto.New(p)
				if err != nil {
					return nil, err
				}
				script.Factory = factory
				break
			}
		}
		beh = script
	default:
		return nil, fmt.Errorf("fuzz: unknown behavior kind %q", sc.Behavior.Kind)
	}
	if sc.Behavior.Until > 0 {
		beh = adversary.Until{Round: sc.Behavior.Until, Inner: beh}
	}

	var drops adversary.DropPolicy
	switch sc.Drops.Kind {
	case "none", "":
	case "random":
		drops = adversary.RandomDrops{Seed: sc.Drops.Seed, Prob: sc.Drops.Prob}
	case "targeted":
		drops = adversary.TargetedDrops{
			Targets:  sc.Drops.Targets,
			Inbound:  sc.Drops.Inbound,
			Outbound: sc.Drops.Outbound,
		}
	case "script":
		drops = adversary.ScriptDrops{
			Edges:  sc.Drops.Edges,
			Repeat: sc.Drops.Repeat,
			Span:   sc.Drops.Span,
		}
	default:
		return nil, fmt.Errorf("fuzz: unknown drop kind %q", sc.Drops.Kind)
	}

	if sel == nil && drops == nil {
		return nil, nil
	}
	return &adversary.Composite{Selector: sel, Behavior: beh, Drops: drops}, nil
}

// Config compiles the scenario into the engine.Config it describes:
// validated parameters, assignment, inputs, a fresh process factory, a
// freshly composed adversary (with its own RNG state), the scenario's
// GST (clamped to 1), round budget (the protocol's suggested budget when
// unset), faults, message budget and time model. Every call returns an
// independent config, so the same scenario can be executed repeatedly —
// under every state representation, in the reference interpreter, or
// inside a worker pool — and each execution sees the adversary exactly
// as a first run would. Run executes it as
// engine.New(cfg), plus claim classification.
//
// Every O(1) check runs before anything n-sized is built, so a hostile
// scenario (a huge n with a short input list) ends in a typed error
// rather than an out-of-memory crash.
func (sc Scenario) Config() (engine.Config, error) {
	proto, ok := protoreg.Get(sc.Protocol)
	if !ok {
		return engine.Config{}, fmt.Errorf("fuzz: unknown protocol %q (registered: %v)", sc.Protocol, protoreg.Names())
	}
	p := sc.Params()
	if err := p.Validate(); err != nil {
		return engine.Config{}, fmt.Errorf("fuzz: invalid params: %w", err)
	}
	if ok, why := proto.Constructible(p); !ok {
		return engine.Config{}, fmt.Errorf("fuzz: not constructible: %s", why)
	}
	if len(sc.Inputs) != sc.N {
		return engine.Config{}, fmt.Errorf("fuzz: need %d inputs, got %d: %w", sc.N, len(sc.Inputs), hom.ErrInputLength)
	}
	var tm engine.TimeModel // nil: lockstep
	switch sc.TimeModel {
	case "", "lockstep":
	case "esync":
		tm = engine.EventuallySynchronous{Bound: sc.Bound, Timeout: sc.Timeout, MaxAttempts: sc.MaxAttempts}
	default:
		return engine.Config{}, fmt.Errorf("fuzz: unknown time model %q", sc.TimeModel)
	}
	a, err := sc.assignment()
	if err != nil {
		return engine.Config{}, err
	}
	inputs := make([]hom.Value, sc.N)
	for i, v := range sc.Inputs {
		inputs[i] = hom.Value(v)
	}
	adv, err := sc.adversaryFor(proto, p)
	if err != nil {
		return engine.Config{}, err
	}
	factory, err := proto.New(p)
	if err != nil {
		return engine.Config{}, fmt.Errorf("fuzz: factory: %w", err)
	}
	gst := sc.GST
	if gst < 1 {
		gst = 1
	}
	maxRounds := sc.MaxRounds
	if maxRounds <= 0 {
		maxRounds = proto.Rounds(p, gst)
	}
	return engine.Config{
		Params:     p,
		Assignment: a,
		Inputs:     inputs,
		NewProcess: factory,
		Adversary:  adv,
		GST:        gst,
		MaxRounds:  maxRounds,
		Faults:     sc.Faults,
		MaxSends:   sc.MaxSends,
		TimeModel:  tm,
	}, nil
}

// Class is the fuzzer's classification of one execution.
type Class string

const (
	// ClassOK: every checked property held.
	ClassOK Class = "ok"
	// ClassExpected: a property was violated, but the parameters are
	// outside the region the implementation claims — a lower-bound
	// demonstration, not a bug.
	ClassExpected Class = "expected-violation"
	// ClassViolation: a property was violated inside the claimed region,
	// or the registry claimed a region Table 1 calls unsolvable. Real.
	ClassViolation Class = "VIOLATION"
	// ClassError: the scenario could not run (invalid parameters,
	// unconstructible factory, engine error). Generator bugs surface
	// here; campaigns treat errors as failures of the harness.
	ClassError Class = "error"
	// ClassPanic: a process or engine panicked mid-execution. The panic
	// is caught at the exec.Protect boundary, so the campaign degrades
	// (records the scenario, keeps running) instead of aborting; the
	// outcome carries the panic value and replays from its seed.
	ClassPanic Class = "panic"
)

// Outcome reports one scenario execution.
type Outcome struct {
	Scenario Scenario `json:"scenario"`
	Class    Class    `json:"class"`
	// Claims echoes the registry's claim verdict and reason.
	Claims    bool   `json:"claims"`
	ClaimsWhy string `json:"claims_why"`
	// Solvable echoes Table 1 for the parameters.
	Solvable bool `json:"solvable"`
	// Properties lists the violated properties (names), sorted.
	Properties []string `json:"properties,omitempty"`
	// Detail is the verdict or error text.
	Detail string `json:"detail"`
	// Rounds is the number of simulation rounds executed.
	Rounds int `json:"rounds"`
	// Stopped echoes engine.Result.Stopped: non-empty when the message
	// budget ended the run early, in which case termination is not
	// attributable to the protocol and the claim is narrowed.
	Stopped string `json:"stopped,omitempty"`
	// Digest is a stable hash of the scenario and everything observable
	// about its execution; equal digests mean byte-identical runs.
	Digest string `json:"digest"`
}

// Options tunes how a scenario is executed without being part of the
// scenario itself (and therefore outside its digest's scenario half).
type Options struct {
	// Invariants enables the engine's per-round internal checks
	// (engine.Config.Invariants): arena bounds, inbox issuance, row
	// order, stamp memos, equivalence-class byte-equality.
	Invariants bool
	// ForceTimeModel, when non-empty, overrides the time model of
	// lockstep scenarios before execution (scenarios that already name a
	// timing model keep their own, knobs included). "esync" is a
	// behaviour-preserving override — the zero-knob eventually-
	// synchronous model is byte-identical to lockstep (the parity
	// anchor) — which is what lets CI replay the whole corpus under the
	// new time model.
	ForceTimeModel string
}

// Run executes one scenario and classifies the result. It never
// panics: process or engine panics unwind to an exec.Protect boundary,
// which converts them into a typed exec.PanicError; the outcome is then
// classified ClassPanic with the panic value as detail, so a campaign
// survives (and records) degenerate corners of the parameter space. The
// panic-value text is deterministic; the goroutine stack stays out of
// the digest.
func Run(sc Scenario, opts Options) *Outcome {
	if opts.ForceTimeModel != "" && (sc.TimeModel == "" || sc.TimeModel == "lockstep") {
		sc.TimeModel = opts.ForceTimeModel
	}
	out, err := exec.Protect(0, func() (*Outcome, error) { return run(sc, opts), nil })
	if err != nil {
		o := &Outcome{Scenario: sc, Class: ClassError, Detail: err.Error()}
		var pe *exec.PanicError
		if errors.As(err, &pe) {
			o.Class = ClassPanic
			o.Detail = fmt.Sprintf("panic: %v", pe.Value)
		}
		o.Digest = o.digest()
		return o
	}
	return out
}

// run is the unprotected scenario execution: Run wraps it so panics
// become typed outcomes instead of tearing down the campaign.
func run(sc Scenario, opts Options) (out *Outcome) {
	out = &Outcome{Scenario: sc, Class: ClassError}
	defer func() { out.Digest = out.digest() }()

	proto, ok := protoreg.Get(sc.Protocol)
	if !ok {
		out.Detail = fmt.Sprintf("unknown protocol %q (registered: %v)", sc.Protocol, protoreg.Names())
		return out
	}
	p := sc.Params()
	cfg, err := sc.Config()
	if err != nil {
		out.Detail = strings.TrimPrefix(err.Error(), "fuzz: ")
		return out
	}
	out.Claims, out.ClaimsWhy = proto.Claims(p)
	out.Solvable = p.Solvable()
	if out.Claims && !out.Solvable && proto.Check == nil {
		// Agreement targets (plain trace checking) must never claim beyond
		// the Table-1 region package solvability reproduces; if one does,
		// the registry itself is the bug. Primitive targets (custom Check)
		// are exempt: their properties hold in regions where agreement is
		// unsolvable — authenticated broadcast at l > 3t is exactly what
		// the paper shows is weaker than agreement's 2l > n+3t.
		out.Class = ClassViolation
		out.Detail = fmt.Sprintf("registry claims %q but Table 1 says: %s", out.ClaimsWhy, p.SolvabilityReason())
		return out
	}

	cfg.Invariants = opts.Invariants
	eng, err := engine.New(cfg)
	if err != nil {
		out.Detail = "sim: " + err.Error()
		return out
	}
	res, err := eng.Run()
	if err != nil {
		out.Detail = "sim: " + err.Error()
		return out
	}
	// The verdict checker interrogates the final process states: each
	// slot's is its class's.
	procs := make([]engine.Process, sc.N)
	for s := range procs {
		procs[s] = eng.Process(s)
	}
	out.Rounds = res.Rounds
	out.Stopped = string(res.Stopped)
	// Injected faults narrow the claim: the schedule must stay within
	// what a Byzantine adversary could simulate (duplication/replay
	// exceed the restricted per-round budget), and the Byzantine slots
	// plus the fault culprits must fit the protocol's t budget. Outside
	// either condition a violation is an expected demonstration, not a
	// bug. ClaimsWhy is not part of the digest, so fault-free seeds keep
	// their digests.
	if out.Claims && !sc.Faults.Empty() {
		if ok, why := sc.Faults.Simulable(p.RestrictedByzantine); !ok {
			out.Claims, out.ClaimsWhy = false, why
		} else if ok, why := proto.VerdictFaults(p, len(res.Corrupted), len(res.Faulted)); !ok {
			out.Claims, out.ClaimsWhy = false, why
		}
	}
	// A budget stop also narrows the claim: the engine cut the execution
	// short, so missing decisions are the budget's doing, not the
	// protocol's. Safety properties are still checked over the prefix.
	if out.Claims && out.Stopped != "" {
		out.Claims, out.ClaimsWhy = false, fmt.Sprintf("stopped early (%s): termination within the round budget is not attributable to the protocol", out.Stopped)
	}
	verdict := proto.Verdict(res, procs)
	out.Detail = verdict.String()
	for _, prop := range verdict.Properties() {
		out.Properties = append(out.Properties, prop.String())
	}
	switch {
	case verdict.OK():
		out.Class = ClassOK
	case out.Claims:
		out.Class = ClassViolation
	default:
		out.Class = ClassExpected
	}
	return out
}

// digest hashes the scenario and the observable outcome into a stable
// hex string. Campaign digests fold these in index order, which is what
// makes "byte-identical across worker counts" checkable.
func (o *Outcome) digest() string {
	h := fnv.New64a()
	enc, _ := json.Marshal(o.Scenario)
	h.Write(enc)
	fmt.Fprintf(h, "|%s|%v|%v|%d|%s|%v|%s", o.Class, o.Claims, o.Solvable, o.Rounds, o.Detail, o.Properties, o.Stopped)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ViolatesAtLeast reports whether the outcome violates every property in
// want (by name). Used by the shrinker to preserve the failure mode.
func (o *Outcome) ViolatesAtLeast(want []string) bool {
	for _, w := range want {
		found := false
		for _, p := range o.Properties {
			if p == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// SortedCopy returns a sorted copy of the given ints (small helper shared
// by the generator and shrinker).
func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
