package engine

import (
	"errors"
	"fmt"
	"sync"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// StateRep owns how correct-process state is held and stepped — the
// engine's second seam. The kernel keeps the round lifecycle (adversary,
// routing, budgets, invariants); the representation supplies the two
// process-facing phases: collecting a round's sends (PrepareRound) and
// delivering its inboxes (DeliverRound). Both concrete representations
// below hold one Process state machine per slot; a counting
// representation — many indistinguishable homonyms folded into one
// counted state — plugs in here without touching the kernel.
//
// Contract: PrepareRound must call e.SetSends for every slot (nil for
// corrupted, crashed or silent slots); DeliverRound must draw every
// correct slot's inbox from e.Router() in ascending slot order — the
// shared-reception classes drain their reference counts in that order —
// and recycle each inbox once its Receive returned. Stop tears the
// representation down (joining any goroutines it owns and releasing
// processes); it is called exactly once, on every Run exit path, and
// must tolerate Start never having been called.
type StateRep interface {
	// Describe names the representation for diagnostics.
	Describe() string
	// Start binds the representation to its engine before round 1.
	Start(e *Engine) error
	// PrepareRound collects each live correct slot's sends (phase 1).
	PrepareRound(round int)
	// DeliverRound hands each live correct slot its inbox and records
	// decisions via e.RecordDecision (phase 4).
	DeliverRound(round int)
	// Stop tears the representation down after the execution.
	Stop()
}

// ErrUnknownStateRep is returned by StateRepByName for a name outside
// the CLI/scenario vocabulary.
var ErrUnknownStateRep = errors.New("engine: unknown state representation")

// StateRepByName resolves a state representation from its CLI/scenario
// name: "" and "concrete" select Concrete, "concurrent" selects
// ConcurrentConcrete, and "counting" selects Counting — with a class
// budget when maxClasses > 0 (runs that split past the budget fail with
// a *DegeneracyError). maxClasses is rejected for the concrete
// representations, which have no class notion.
func StateRepByName(name string, maxClasses int) (StateRep, error) {
	switch name {
	case "", "concrete":
		if maxClasses > 0 {
			return nil, fmt.Errorf("%w: %q takes no class budget", ErrUnknownStateRep, name)
		}
		return Concrete(), nil
	case "concurrent":
		if maxClasses > 0 {
			return nil, fmt.Errorf("%w: %q takes no class budget", ErrUnknownStateRep, name)
		}
		return ConcurrentConcrete(), nil
	case "counting":
		if maxClasses > 0 {
			return CountingLimited(maxClasses), nil
		}
		return Counting(), nil
	}
	return nil, fmt.Errorf("%w: %q (want concrete, concurrent or counting)", ErrUnknownStateRep, name)
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

// roundRouter marks a StateRep that can route a round itself (phase 3).
// RouteRound runs between BeginRound and Flush; returning true tells the
// engine to skip the per-slot RouteCorrect/RouteByzantine loops.
type roundRouter interface {
	RouteRound(round int) bool
}

// repFailer lets a StateRep abort the execution: the engine checks Err
// after every DeliverRound and surfaces the error from Run.
type repFailer interface {
	Err() error
}

// concreteRep is the sequential concrete representation: one Process per
// slot, stepped in place on the driving goroutine.
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
	for s := 0; s < e.N(); s++ {
		e.SetSends(s, nil)
		if e.IsBad(s) || e.Halted(s, round) {
			continue
		}
		e.SetSends(s, e.Process(s).Prepare(round))
	}
}

func (r *concreteRep) DeliverRound(round int) {
	e := r.e
	for to := 0; to < e.N(); to++ {
		if e.IsBad(to) {
			continue
		}
		in := e.Router().Inbox(to)
		if e.Halted(to, round) {
			// A crashed or stalled process takes no step, but its inbox
			// is still drawn (and discarded — the router suppressed or
			// held everything sent to it anyway) so shared-class
			// reference counts drain exactly as in a fault-free round.
			in.Recycle()
			continue
		}
		p := e.Process(to)
		p.Receive(round, in)
		in.Recycle()
		if !e.Decided(to) {
			v, ok := p.Decision()
			e.RecordDecision(to, v, ok, round)
		}
	}
}

func (r *concreteRep) Stop() {
	if r.e == nil {
		return
	}
	for s := 0; s < r.e.N(); s++ {
		if p := r.e.Process(s); p != nil {
			if rel, ok := p.(Releaser); ok {
				rel.Release()
			}
		}
	}
}

// Concurrent-representation worker messages: the coordinator drives each
// process goroutine with a strict prepare → sends → inbox → decision
// cycle per round.
type prepareReq struct {
	round int
}

type prepareResp struct {
	slot  int
	sends []msg.Send
}

type receiveReq struct {
	round int
	inbox *msg.Inbox
}

type decisionResp struct {
	slot    int
	value   hom.Value
	decided bool
}

type repWorker struct {
	slot    int
	proc    Process
	prepare chan prepareReq
	receive chan receiveReq
}

// concurrentRep is the concurrent concrete representation: one goroutine
// per correct process, exchanging messages with the coordinator over
// unbuffered channels, one lockstep round at a time. It produces results
// equal, delivery for delivery, to the sequential representation's (the
// equivalence is pinned by the parity suites over the committed fuzz
// corpus): the intern table lives on the coordinator and messages are
// symbolized in stamp order, never from worker goroutines, so KeyID
// assignment matches exactly.
//
// The goroutine lifecycle follows the project's coding guide: Start owns
// all goroutines it spawns, Stop signals them through a close-once
// channel and joins them before returning — no leaks on any path.
type concurrentRep struct {
	e           *Engine
	wg          sync.WaitGroup
	workers     []*repWorker
	prepareOut  chan prepareResp
	decisionOut chan decisionResp
	inboxes     []*msg.Inbox
	up          int // workers stepped in the current round
}

// ConcurrentConcrete returns the goroutine-per-process state
// representation.
func ConcurrentConcrete() StateRep { return &concurrentRep{} }

func (r *concurrentRep) Describe() string { return "concurrent-concrete" }

func (r *concurrentRep) Start(e *Engine) error {
	r.e = e
	n := e.N()
	r.workers = make([]*repWorker, n)
	r.prepareOut = make(chan prepareResp)
	r.decisionOut = make(chan decisionResp)
	r.inboxes = make([]*msg.Inbox, n)
	for s := 0; s < n; s++ {
		p := e.Process(s)
		if p == nil {
			continue
		}
		w := &repWorker{
			slot:    s,
			proc:    p,
			prepare: make(chan prepareReq),
			receive: make(chan receiveReq),
		}
		r.workers[s] = w
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for req := range w.prepare {
				r.prepareOut <- prepareResp{slot: w.slot, sends: w.proc.Prepare(req.round)}
				recv := <-w.receive
				w.proc.Receive(recv.round, recv.inbox)
				v, ok := w.proc.Decision()
				r.decisionOut <- decisionResp{slot: w.slot, value: v, decided: ok}
			}
			// The coordinator closed the prepare channel: the execution is
			// over, so the process can return its arenas to their pools.
			// Doing it here keeps Release on the goroutine that owned the
			// process state, joined before Run returns.
			if rel, ok := w.proc.(Releaser); ok {
				rel.Release()
			}
		}()
	}
	return nil
}

func (r *concurrentRep) PrepareRound(round int) {
	e := r.e
	// Fan out prepare requests, gather sends. A worker whose slot is
	// inside a crash or stall window gets no request this round — it
	// stays parked on its prepare channel, holding its protocol state,
	// and resumes when the window ends.
	r.up = 0
	for _, w := range r.workers {
		if w != nil && !e.Halted(w.slot, round) {
			w.prepare <- prepareReq{round: round}
			r.up++
		}
	}
	for s := 0; s < e.N(); s++ {
		e.SetSends(s, nil)
	}
	for i := 0; i < r.up; i++ {
		resp := <-r.prepareOut
		if len(resp.sends) > 0 {
			e.SetSends(resp.slot, resp.sends)
		}
	}
}

func (r *concurrentRep) DeliverRound(round int) {
	e := r.e
	// Fan out inboxes, gather decisions. Every Receive has returned
	// before its worker reports a decision, so the inboxes can be
	// recycled once all decisions are in.
	for _, w := range r.workers {
		if w != nil {
			in := e.Router().Inbox(w.slot)
			if e.Halted(w.slot, round) {
				// Crashed or stalled this round: the inbox is still
				// drawn (and discarded) so shared-class reference counts
				// drain, but the parked worker takes no step.
				in.Recycle()
				continue
			}
			r.inboxes[w.slot] = in
			w.receive <- receiveReq{round: round, inbox: in}
		}
	}
	for i := 0; i < r.up; i++ {
		d := <-r.decisionOut
		e.RecordDecision(d.slot, d.value, d.decided, round)
	}
	for s, in := range r.inboxes {
		if in != nil {
			in.Recycle()
			r.inboxes[s] = nil
		}
	}
}

func (r *concurrentRep) Stop() {
	for _, w := range r.workers {
		if w != nil {
			close(w.prepare)
		}
	}
	r.wg.Wait()
}
