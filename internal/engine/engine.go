// Package engine is the round kernel for the homonym model of
// Delporte-Gallet et al. (PODC 2011): the one way an execution is
// assembled and run.
//
// The kernel realises exactly the paper's two timing models:
//
//   - Synchronous: in each round every process sends to (subsets of) the
//     other processes and then receives everything sent to it that round.
//   - Partially synchronous (the "basic" model of Dwork, Lynch and
//     Stockmeyer): rounds as above, but an adversary may suppress message
//     deliveries in any round before a global stabilisation round (GST).
//     From GST on, every message is delivered, which realises "only a
//     finite number of messages are dropped".
//
// Correct processes are deterministic state machines behind the Process
// interface. They are addressed only by their authenticated identifier;
// several processes may share an identifier (homonyms) and a receiver can
// never tell which group member sent a message. Byzantine processes are
// played by an Adversary, which is omniscient (it sees parameters,
// assignment, inputs, and all traffic, including the current round's
// correct sends — a rushing adversary) but can never forge an identifier:
// the engine stamps every delivery with the true identifier of the sending
// slot.
//
// Two model switches from the paper are enforced by the engine itself:
//
//   - Numerate vs innumerate reception: inboxes carry multiset or set
//     semantics (msg.Inbox).
//   - Restricted Byzantine processes: at most one message per recipient
//     per round from each Byzantine slot; excess messages are discarded
//     and counted, so lower-bound experiments in the restricted model are
//     honest.
//
// An execution is one Config, the §2 tuple. New(cfg) validates it and
// (*Engine).Run executes it once, in the one round loop; With* options
// after the Config override single fields. Two seams parameterize the
// kernel:
//
//   - TimeModel grants the timing policy. Lockstep (the paper's
//     round-by-round model) is the default; EventuallySynchronous adds
//     per-link delay/reorder faults, per-process round-clock stalls
//     (skew, bounded after GST) and timeout-driven retransmission with
//     exponential backoff, holding in-flight messages in a deterministic
//     pending queue.
//   - StateRep owns how correct-process state is held and stepped.
//     Counting, the one representation, holds one state machine per
//     equivalence class of slots; Concrete is Counting with every class
//     one slot.
//
// Round delivery runs through the Router, shared by every state
// representation: sends are stamped once into a structure-of-arrays
// arena — once per counting class, with its size as the multiplicity,
// in rounds where nothing can tell its members apart — and delivered as
// per-recipient batches with the adversary's masks applied over each
// whole batch. On the reception side the Router
// classifies each identifier group's correct members into equivalence
// classes of byte-identical batches and fills one shared inbox core per
// class, so the fill cost of identifier-symmetric rounds scales with l
// instead of n. The naive per-message, per-recipient executor the
// Router is held to lives in package refmodel, outside the engine.
package engine

import (
	"errors"
	"fmt"
	"sort"

	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
)

// Context carries everything a correct process may legally know at start:
// its authenticated identifier, its input value and the public model
// parameters. Deliberately absent: the process's engine slot and the
// identifier assignment — homonyms must not be able to tell themselves
// apart (paper §2: internal process names "cannot be used by the processes
// themselves in their algorithms").
type Context struct {
	ID     hom.Identifier
	Input  hom.Value
	Params hom.Params
}

// Process is a deterministic correct process. The engine drives it with
// the round protocol: Prepare(r) collects the messages to send in round r,
// then Receive(r, inbox) delivers what arrived in round r. Decision is
// polled after every round; once it reports a value it must keep reporting
// the same value (decisions are irrevocable).
type Process interface {
	// Init is called once before round 1.
	Init(ctx Context)
	// Prepare returns the sends for the given round (1-based). The slice
	// is read during that round only; the next Prepare may reuse it.
	Prepare(round int) []msg.Send
	// Receive delivers the round's inbox. The inbox is engine-owned
	// scratch, recycled as soon as Receive returns: implementations must
	// copy out anything they keep and must not retain the inbox past the
	// call.
	//
	// Every inbox one process receives over its life carries KeyIDs and
	// PayloadIDs (msg.Inbox.PayloadIDAt) issued by one msg.Interner, or
	// none throughout — every state representation and every driver
	// outside the engine (the scripted shadows) keeps to that. A protocol
	// may therefore index its own tables by PayloadID across rounds, as
	// authbcast's echo memo does; an ID is an index, never a name: it
	// must never be hashed, fingerprinted or otherwise exposed, because
	// IDs differ between executions that behave identically.
	Receive(round int, in *msg.Inbox)
	// Decision returns the decided value, if any.
	Decision() (hom.Value, bool)
}

// View is the omniscient adversary's window onto the execution for the
// current round: what the correct slots are about to send (rushing
// adversary), indexed by slot and by identifier group. The View and
// every slice its accessors return are engine-owned scratch reused
// across rounds: adversaries must not retain them past the Sends call.
type View struct {
	Params hom.Params
	// Assignment and Inputs are the execution's configured slices (see
	// Config.Assignment): read-only.
	Assignment hom.Assignment
	Inputs     []hom.Value
	Round      int
	sends      [][]msg.Send // per sender slot; nil/empty when silent
	senders    []int32      // ascending slots with at least one send
	groups     [][]int32    // per identifier: ascending correct member slots
}

// Senders returns the correct slots sending at least one message this
// round, ascending. The slice is engine-owned scratch.
func (v *View) Senders() []int32 { return v.senders }

// SendsOf returns the messages the given correct slot is about to send
// this round; nil when the slot is silent, corrupted or out of range.
func (v *View) SendsOf(slot int) []msg.Send {
	if slot < 0 || slot >= len(v.sends) {
		return nil
	}
	return v.sends[slot]
}

// GroupMembers returns the correct slots holding the given identifier,
// ascending — fixed for the whole execution (corrupted slots excluded).
// The slice is engine-owned; callers must not mutate it.
func (v *View) GroupMembers(id hom.Identifier) []int32 {
	if int(id) < 0 || int(id) >= len(v.groups) {
		return nil
	}
	return v.groups[id]
}

// NewView assembles a stand-alone View, primarily for adversary unit
// tests that feed hand-built rounds to Sends implementations.
// sendsBySlot is indexed by sender slot; corrupted lists slots to
// exclude from the identifier groups.
func NewView(p hom.Params, a hom.Assignment, inputs []hom.Value, round int, sendsBySlot [][]msg.Send, corrupted []int) *View {
	v := &View{
		Params:     p,
		Assignment: a,
		Inputs:     inputs,
		Round:      round,
		sends:      sendsBySlot,
	}
	for s := range sendsBySlot {
		if len(sendsBySlot[s]) > 0 {
			v.senders = append(v.senders, int32(s))
		}
	}
	isBad := make([]bool, len(a))
	for _, s := range corrupted {
		if s >= 0 && s < len(isBad) {
			isBad[s] = true
		}
	}
	v.groups = groupMembers(p, a, isBad)
	return v
}

// groupMembers builds the per-identifier correct member lists (index 0
// unused; identifiers are 1-based).
func groupMembers(p hom.Params, a hom.Assignment, isBad []bool) [][]int32 {
	groups := make([][]int32, p.L+1)
	for s, id := range a {
		if s < len(isBad) && isBad[s] {
			continue
		}
		groups[id] = append(groups[id], int32(s))
	}
	return groups
}

// Adversary controls the Byzantine slots and (in the partially synchronous
// model) message suppression. Implementations must be deterministic given
// their own construction parameters.
type Adversary interface {
	// Corrupt selects the slots to corrupt, at most Params.T of them. It
	// is called once, before round 1.
	Corrupt(p hom.Params, a hom.Assignment, inputs []hom.Value) []int
	// Sends returns the messages the given corrupted slot emits this
	// round. The engine stamps them with the slot's true identifier.
	Sends(round, slot int, view *View) []msg.TargetedSend
	// Drop reports whether the message from fromSlot to toSlot should be
	// suppressed this round. It is only honoured in the partially
	// synchronous model for rounds before the engine's GST, and never for
	// self-deliveries.
	Drop(round, fromSlot, toSlot int) bool
}

// Observer is an optional extension: adversaries that implement it are
// shown every delivery at the end of each round. The deliveries slice is
// engine-owned scratch reused across rounds; observers must copy what
// they keep.
type Observer interface {
	Observe(round int, deliveries []msg.Delivered)
}

// Config is one execution, whole: the §2 tuple of parameters,
// assignment, inputs, adversary and synchrony, plus the engine's own
// knobs. It is the only description of an execution: New(cfg) runs it,
// and each With* option sets one of its fields. A zero or nil field
// means what its comment says.
type Config struct {
	Params hom.Params
	// Assignment maps each slot to its identifier.
	//
	// Assignment and Inputs are held by reference, never copied: the
	// engine reads them for the whole execution, and the Result reports
	// the same slices. The caller must not write to them until it is done
	// with the Result. Only Adversary.Corrupt is handed copies.
	Assignment hom.Assignment
	// Inputs holds one proposal per slot. Inputs of corrupted slots are
	// ignored.
	Inputs []hom.Value
	// NewProcess builds the correct process for a slot; the process itself
	// only ever learns its identifier and input, via Context. Contract: a
	// process implementing Cloner must be a function of (identifier,
	// input) — the engine calls the factory once per equivalence class,
	// for its smallest slot, and that process stands for every slot of
	// the class. A factory that needs the slot (per-slot implementations
	// or records) builds processes without Cloner, which run one per slot.
	NewProcess func(slot int) Process
	// Adversary plays the Byzantine slots; nil means a fault-free run.
	Adversary Adversary
	// GST is the first round at which message drops are forbidden
	// (partially synchronous model only). GST <= 1 makes the execution
	// effectively synchronous.
	GST int
	// MaxRounds caps the execution. Required (> 0).
	MaxRounds int
	// ExtraRounds keeps the engine running this many rounds after every
	// correct process has decided, which lets tests observe post-decision
	// behaviour (the paper's processes "continue running the algorithm").
	ExtraRounds int
	// Visibility optionally restricts which slot pairs can communicate;
	// nil means complete connectivity. Used by the covering-system
	// impossibility scenario (paper Figure 1).
	Visibility func(fromSlot, toSlot int) bool
	// RecordTraffic stores every delivery in the result (memory-heavy;
	// for debugging and the attack experiments).
	RecordTraffic bool
	// Faults optionally injects benign (non-Byzantine) faults into the
	// execution: crash-stop and crash-recovery windows for correct
	// processes, send/receive omission, message duplication and stale
	// replay at the delivery layer (package inject). Nil means no
	// injected faults. Schedules compose with the Adversary — faults on
	// corrupted slots are ignored — and validation errors surface from
	// New. Touched correct slots are reported in Result.Faulted and
	// excluded from Result.CorrectSlots.
	Faults *inject.Schedule
	// MaxSends caps the cumulative number of stamped sends across the
	// execution (which bounds arena growth, since every arena entry is
	// one stamped send). When the cap is reached the execution stops
	// after the current round with Result.Stopped = StopMessageBudget.
	// Zero or less means unlimited.
	MaxSends int
	// TimeModel decides how rounds relate to message delivery (see
	// TimeModel); nil means Lockstep, the paper's round-by-round loop.
	TimeModel TimeModel
	// Invariants enables paranoid mode: after every round the engine
	// validates the router's internal invariants (arena index bounds,
	// inbox issuance, row order, stamp memos and an equivalence-class
	// byte-equality spot check) and aborts the execution with an
	// *InvariantError on the first violation. Cheap enough for fuzz
	// campaigns; off by default.
	Invariants bool
	// RecordClasses reports the execution's final state in
	// Result.Classes, taken before the processes are released. It costs
	// O(classes) once, at the end of the run, and changes no routing.
	RecordClasses bool

	rep StateRep // set by WithStateRep; nil means Counting
}

// Releaser is an optional Process extension: after an execution finishes,
// the engine calls Release on every correct process that implements it,
// so protocol implementations can return arena-backed tables and intern
// scratch to their pools for the next execution.
//
// Invariants: Release is called at most once per process, strictly after
// its last Receive/Decision call and before Run returns; the process is
// unusable afterwards, and anything it returned to a pool — tables,
// interners, KeyIDs they issued — must not be referenced again.
// Implementations must tolerate being absent: the hook is
// optional and the engine never requires it.
type Releaser interface {
	Release()
}

// Validation errors for New.
var (
	ErrNilProcessFactory = errors.New("engine: NewProcess must not be nil")
	ErrNoRoundCap        = errors.New("engine: MaxRounds must be positive")
	ErrTooManyCorrupt    = errors.New("engine: adversary corrupted more than T slots")
	ErrCorruptRange      = errors.New("engine: adversary corrupted an out-of-range or duplicate slot")
	// ErrTimingFaults: the fault schedule contains delay/reorder/stall
	// faults but the selected time model grants no timing capability
	// (see TimingPolicy); run them under EventuallySynchronous.
	ErrTimingFaults = errors.New("engine: delay/reorder/stall faults require a timing-capable time model")
	// ErrTimingPolicy: a timing-capable time model was built with a
	// negative Bound, Timeout or MaxAttempts.
	ErrTimingPolicy = errors.New("engine: timing policy knobs must be non-negative")
	// ErrEngineReused: Run was called again on an Engine whose execution
	// state (pooled interner, processes) the first Run already released.
	ErrEngineReused = errors.New("engine: an Engine runs exactly once")
)

// errUnbound: a StateRep's Start returned without binding a counting
// representation to the engine — one of its own that wraps neither
// Counting nor Concrete.
var errUnbound = errors.New("engine: the state representation bound no processes in Start")

// Stats aggregates execution costs.
type Stats struct {
	// MessagesSent counts messages handed to the engine (after expanding
	// identifier-targeted sends to their recipient sets).
	MessagesSent int
	// MessagesDelivered counts actual deliveries.
	MessagesDelivered int
	// MessagesDropped counts adversarial suppressions.
	MessagesDropped int
	// PayloadBytes sums len(Key()) over delivered payloads — a
	// serialisation-free proxy for bandwidth.
	PayloadBytes int
	// RestrictedViolations counts messages a restricted Byzantine slot
	// attempted beyond its one-per-recipient budget (discarded).
	RestrictedViolations int
	// FaultOmissions counts deliveries suppressed by the fault injector
	// (messages to crashed recipients and omission-fault losses).
	FaultOmissions int
	// TimingHolds counts (send, recipient) deliveries held in the
	// pending queue by a timing fault (delay, reorder, or a stalled
	// recipient) under the eventually-synchronous time model. Each held
	// delivery is counted once, at hold time; its eventual delivery
	// counts in MessagesSent/MessagesDelivered at the due round.
	TimingHolds int
	// Retransmits counts sender timeout retransmissions fired for held
	// deliveries. Each one is a real transmission: it also counts
	// against Config.MaxSends.
	Retransmits int
}

// StopReason explains why an execution budget ended a run early; empty
// when the execution ran to decision (plus ExtraRounds) or MaxRounds.
type StopReason string

const (
	// StopMessageBudget: Config.MaxSends was reached.
	StopMessageBudget StopReason = "message-budget"
)

// Result reports one execution.
type Result struct {
	Params hom.Params
	// Assignment and Inputs are the slices the execution was configured
	// with (Config.Assignment, Config.Inputs), not copies: a caller that
	// rewrites its buffer while the Result is in use rewrites the Result.
	Assignment hom.Assignment
	Inputs     []hom.Value
	// Corrupted lists the Byzantine slots, sorted.
	Corrupted []int
	// Faulted lists the correct (non-corrupted) slots touched by the
	// injected fault schedule — crashed, omission-faulty, or the sender
	// side of a duplication/replay link fault — sorted. Like corrupted
	// slots they are exempt from the agreement properties: CorrectSlots
	// excludes them, which is the standard treatment of faulty processes
	// in the crash/omission model (and conservative for the link-fault
	// senders, which merely keeps checkers sound).
	Faulted []int
	// Decisions holds each slot's decision (hom.NoValue when undecided or
	// corrupted).
	Decisions []hom.Value
	// DecidedAt holds the 1-based round of each slot's decision (0 when
	// undecided).
	DecidedAt []int
	// Rounds is the number of rounds executed.
	Rounds int
	// GST echoes the effective stabilisation round of the execution
	// (Config.GST clamped to at least 1), so post-hoc property checkers
	// can compute stabilised superrounds without a side channel.
	GST int
	// AllDecided reports whether every correct slot (including faulted
	// ones) decided; a crash-stopped slot never decides, so faulted
	// executions typically run to MaxRounds with AllDecided false.
	AllDecided bool
	// Stopped is non-empty when an execution budget ended the run early.
	Stopped StopReason
	Stats   Stats
	// Traffic holds every delivery when Config.RecordTraffic was set.
	Traffic []msg.Delivered
	// Classes holds, when Config.RecordClasses was set, the final state:
	// the live correct classes by (identifier, StateFingerprint), sizes
	// summed, sorted; then the adversary's fingerprint under identifier
	// 0, when it is a StateHasher. It names no slot, so every state
	// representation, and every within-group slot permutation, reads alike.
	Classes []ClassState
}

// ClassState is one entry of Result.Classes. A process without
// StateHasher reports fingerprint 0.
type ClassState struct {
	ID   hom.Identifier
	FP   msg.StateHash
	Size int
}

// IsCorrupted reports whether the slot was Byzantine in this execution.
func (r *Result) IsCorrupted(slot int) bool {
	i := sort.SearchInts(r.Corrupted, slot)
	return i < len(r.Corrupted) && r.Corrupted[i] == slot
}

// IsFaulted reports whether the slot was touched by the injected fault
// schedule in this execution.
func (r *Result) IsFaulted(slot int) bool {
	i := sort.SearchInts(r.Faulted, slot)
	return i < len(r.Faulted) && r.Faulted[i] == slot
}

// CorrectSlots returns the sorted slots that were neither corrupted nor
// faulted — the processes the agreement properties quantify over.
func (r *Result) CorrectSlots() []int {
	out := make([]int, 0, len(r.Decisions)-len(r.Corrupted))
	for lo, hi := r.CorrectRun(0); lo < hi; lo, hi = r.CorrectRun(hi) {
		for s := lo; s < hi; s++ {
			out = append(out, s)
		}
	}
	return out
}

// CorrectRun returns the first maximal run [lo, hi) of consecutive slots
// at or after from that are neither corrupted nor faulted; lo == hi when
// none is left. Walking the runs
//
//	for lo, hi := res.CorrectRun(0); lo < hi; lo, hi = res.CorrectRun(hi)
//
// visits exactly CorrectSlots, ascending, without materialising them —
// the exempt lists are consulted once per run, not once per slot.
func (r *Result) CorrectRun(from int) (lo, hi int) {
	n := len(r.Decisions)
	lo = max(from, 0)
	for lo < n && (r.IsCorrupted(lo) || r.IsFaulted(lo)) {
		lo++
	}
	if lo >= n {
		return n, n
	}
	hi = n
	for _, exempt := range [2][]int{r.Corrupted, r.Faulted} {
		if i := sort.SearchInts(exempt, lo); i < len(exempt) && exempt[i] < hi {
			hi = exempt[i]
		}
	}
	return lo, hi
}

// Engine holds one assembled execution: configuration, state
// representation, and the per-round scratch the kernel reuses across
// rounds. Build one with New; it executes exactly once via Run.
type Engine struct {
	cfg       Config // its rep holds and steps the processes
	n         int
	held      *countingRep // the representation holding the processes, bound in its Start
	corrupted []int
	isBad     []bool
	undecided int // correct slots without a recorded decision
	res       *Result
	observer  Observer
	ran       bool // Run was entered

	// Per-round scratch, allocated once and reused across rounds so the
	// steady-state hot path is allocation-free (modulo what processes and
	// adversaries themselves allocate). Routing scratch (send arena,
	// per-recipient batches, delivery indices) lives in the Router,
	// shared by every state representation.
	outgoing     []outgoing           // the round's correct senders, ascending
	correctSends [][]msg.Send         // the View's per-slot sends; nil unless an adversary plays
	byzSends     [][]msg.TargetedSend // parallel to corrupted
	senders      []int32              // the View's sender index, rebuilt per round
	groups       [][]int32            // the View's per-identifier correct members, execution-fixed
	view         View                 // handed to the adversary each round
	router       *Router              // stamping, batching, delivery, stats
	intern       *msg.Interner        // per-execution key symbolization table, pooled
	inj          *inject.Injector     // compiled fault schedule, nil when fault-free
}

// newEngine builds the execution state for a validated Config whose
// TimeModel and state representation are set.
func newEngine(cfg Config) (*Engine, error) {
	n := cfg.Params.N
	e := &Engine{
		cfg:   cfg,
		n:     n,
		isBad: make([]bool, n),
	}
	if cfg.Adversary != nil {
		bad := cfg.Adversary.Corrupt(cfg.Params, cfg.Assignment.Clone(), append([]hom.Value(nil), cfg.Inputs...))
		if len(bad) > cfg.Params.T {
			return nil, fmt.Errorf("%w (%d > %d)", ErrTooManyCorrupt, len(bad), cfg.Params.T)
		}
		sorted := append([]int(nil), bad...)
		sort.Ints(sorted)
		for i, s := range sorted {
			if s < 0 || s >= n || (i > 0 && sorted[i-1] == s) {
				return nil, fmt.Errorf("%w (slot %d)", ErrCorruptRange, s)
			}
			e.isBad[s] = true
		}
		e.corrupted = sorted
		if obs, ok := cfg.Adversary.(Observer); ok {
			e.observer = obs
		}
	}
	e.undecided = n - len(e.corrupted)
	gst := cfg.GST
	if gst < 1 {
		gst = 1
	}
	inj, err := inject.Compile(cfg.Faults, n)
	if err != nil {
		return nil, err
	}
	e.inj = inj
	e.res = &Result{
		Params:     cfg.Params,
		GST:        gst,
		Assignment: cfg.Assignment,
		Inputs:     cfg.Inputs,
		Corrupted:  e.corrupted,
		Decisions:  make([]hom.Value, n), // NoValue filled in by Run, where never recorded
		DecidedAt:  make([]int, n),
	}
	// Faults scheduled against corrupted slots are moot (the adversary
	// already controls them); only correct culprits are reported.
	for _, s := range inj.Culprits() {
		if !e.isBad[s] {
			e.res.Faulted = append(e.res.Faulted, s)
		}
	}
	if cfg.Adversary != nil && len(e.corrupted) > 0 {
		e.correctSends = make([][]msg.Send, n)
		e.byzSends = make([][]msg.TargetedSend, len(e.corrupted))
		e.senders = make([]int32, 0, n)
		e.groups = groupMembers(cfg.Params, e.res.Assignment, e.isBad)
	}
	e.intern = msg.NewPooledInterner()
	policy := cfg.TimeModel.Timing()
	if policy.Enabled && (policy.Bound < 0 || policy.Timeout < 0 || policy.MaxAttempts < 0) {
		return nil, fmt.Errorf("%w (bound=%d, timeout=%d, maxattempts=%d)",
			ErrTimingPolicy, policy.Bound, policy.Timeout, policy.MaxAttempts)
	}
	if inj.HasTiming() && !policy.Enabled {
		return nil, fmt.Errorf("%w (model %q)", ErrTimingFaults, cfg.TimeModel.Describe())
	}
	record := cfg.RecordTraffic || e.observer != nil
	e.router = newRouter(&e.cfg, e.isBad, &e.res.Stats, e.intern, record, e.inj)
	if policy.Enabled {
		e.router.enableTiming(policy)
	}
	return e, nil
}

// Run executes the assembled instance once, round by round in lockstep,
// to completion (all correct slots decided, plus ExtraRounds), to
// MaxRounds, or to a budget stop. A second Run returns ErrEngineReused.
func (e *Engine) Run() (*Result, error) {
	if e.ran {
		return nil, ErrEngineReused
	}
	e.ran = true
	// Tear down the state representation (releasing processes), return
	// the last round's shared inbox cores and the router's stamp store,
	// and recycle the pooled interner on every exit path, including an
	// invariant abort mid-execution.
	defer func() {
		e.cfg.rep.Stop()
		e.router.releaseCores()
		e.router.release()
		e.intern.Recycle()
		e.intern = nil
	}()
	if err := e.cfg.rep.Start(e); err != nil {
		return nil, err
	}
	if e.held == nil {
		return nil, errUnbound
	}
	extra := e.cfg.ExtraRounds
	for round := 1; round <= e.cfg.MaxRounds; round++ {
		if err := e.step(round); err != nil {
			return nil, err
		}
		if e.cfg.MaxSends > 0 && e.router.totalStamped >= e.cfg.MaxSends {
			e.res.Stopped = StopMessageBudget
			break
		}
		if e.undecided == 0 {
			if extra == 0 {
				break
			}
			extra--
		}
	}
	e.res.AllDecided = e.undecided == 0
	// A slot never recorded — undecided or corrupted — reports NoValue;
	// when every slot decided there is nothing to fill.
	if !e.res.AllDecided || len(e.corrupted) > 0 {
		for s, at := range e.res.DecidedAt {
			if at == 0 {
				e.res.Decisions[s] = hom.NoValue
			}
		}
	}
	if e.cfg.RecordClasses {
		e.res.Classes = e.held.classStates()
		if h, ok := e.cfg.Adversary.(StateHasher); ok {
			e.res.Classes = append(e.res.Classes, ClassState{FP: h.StateFingerprint()})
		}
	}
	return e.res, nil
}

// step executes one round: collect correct sends, ask the adversary for
// Byzantine sends, deliver, and advance every correct process. All round
// state lives in engine-owned scratch reused across rounds. A correct
// slot inside a crash window takes no step this round — no Prepare, no
// Receive, no Decision poll — and rejoins with its pre-crash protocol
// state when (and if) the window ends, per the crash-recovery model.
// A stalled slot (eventually-synchronous skew) is treated the same on
// the stepping side, but its inbound messages are held rather than
// lost and surface when it wakes.
func (e *Engine) step(round int) error {
	e.res.Rounds = round

	// The Router opens the round first: whether the round is weighted —
	// whether a counting class may send once for all its members — is
	// decided by the link-condition windows it resolves here.
	e.router.beginRound(round)

	// Phase 1: correct sends, collected by the state representation.
	e.outgoing = e.outgoing[:0]
	clear(e.correctSends)
	e.cfg.rep.PrepareRound(round)

	// Phase 2: Byzantine sends (rushing: the adversary sees phase 1).
	if e.byzSends != nil {
		e.senders = e.senders[:0]
		for s, sends := range e.correctSends {
			if len(sends) > 0 {
				e.senders = append(e.senders, int32(s))
			}
		}
		e.view = View{
			Params:     e.cfg.Params,
			Assignment: e.res.Assignment,
			Inputs:     e.res.Inputs,
			Round:      round,
			sends:      e.correctSends,
			senders:    e.senders,
			groups:     e.groups,
		}
		for i, s := range e.corrupted {
			e.byzSends[i] = e.cfg.Adversary.Sends(round, s, &e.view)
		}
	}

	// Phase 3: stamp, route, deliver — the Router shared by every state
	// representation. Each send is stamped (and its key interned) exactly
	// once into the round's SoA send arena; routing then moves only int32
	// arena indices. A correct send is one row entry per identifier group
	// it addresses and only targeted pairs reach a recipient's own tail,
	// so a clean round routes in O(sends·l + targeted) — the n^2 fan-out
	// is counted, never walked — and a recipient's batch (row ++ tail) is
	// materialised once per reception class. Correct sends go first: the
	// first pair routed individually closes the round's rows.
	for _, o := range e.outgoing {
		e.router.routeCorrect(int(o.slot), o.copies, o.sends)
	}
	for i, sends := range e.byzSends {
		e.router.routeByzantine(e.corrupted[i], sends)
		e.byzSends[i] = nil
	}
	e.router.flush()

	// Phase 4: reception and state transitions, owned by the state
	// representation. Inboxes come from the shared pool and go straight
	// back once Receive returns (processes must not retain them — see the
	// Process contract).
	e.cfg.rep.DeliverRound(round)

	if e.cfg.RecordTraffic {
		e.res.Traffic = append(e.res.Traffic, e.router.deliveries...)
	}
	if e.observer != nil {
		e.observer.Observe(round, e.router.deliveries)
	}
	if e.cfg.Invariants {
		return e.router.verifyRound()
	}
	return nil
}

// outgoing is one correct sender's round as a state representation
// registers it (Engine.send): the slot the sends are stamped from, and
// how many indistinguishable slots each stands for.
type outgoing struct {
	slot, copies int32
	sends        []msg.Send
}

// N returns the number of slots.
func (e *Engine) N() int { return e.n }

// IsBad reports whether the slot is corrupted.
func (e *Engine) IsBad(slot int) bool { return e.isBad[slot] }

// halted reports whether the slot takes no step this round — no
// Prepare, no inbox, no Receive, no Decision — because it is inside an
// injected crash window (its inbound messages are lost) or its round
// clock is stalled (they are held until it wakes). Only a round inside
// the loss or the stall window (Router.lossRound, stallRound) halts any.
func (e *Engine) halted(slot, round int) bool {
	return e.inj.Down(slot, round) || e.router.slotStalled(slot, round)
}

// Process returns the process standing for the slot — its class's, shared
// with every slot of the class — or nil when the slot is corrupted or Run
// has not started.
func (e *Engine) Process(slot int) Process {
	if e.held == nil {
		return nil
	}
	return e.held.processAt(slot)
}

// send registers a correct sender's sends for the current round during
// PrepareRound, in ascending slot order: stamped from the slot, each
// standing for copies indistinguishable slots — more than one only in a
// weighted round (Router.weighted) — and shown to an adversary's View as
// the slot's (a sender standing for several shows the others itself).
func (e *Engine) send(slot int, copies int32, sends []msg.Send) {
	if len(sends) == 0 {
		return
	}
	e.outgoing = append(e.outgoing, outgoing{slot: int32(slot), copies: copies, sends: sends})
	if e.correctSends != nil {
		e.correctSends[slot] = sends
	}
}

// Router returns the execution's delivery machinery; representations
// draw inboxes from it during DeliverRound.
func (e *Engine) Router() *Router { return e.router }
