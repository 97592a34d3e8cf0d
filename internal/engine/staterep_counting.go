package engine

import (
	"cmp"
	"fmt"
	"slices"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// DegeneracyError reports that the counting representation split into
// more equivalence classes than its configured limit — the adversary or
// fault schedule forced a (near-)concrete execution, defeating the
// point of counting. Callers that opted into a class budget
// (CountingLimited) receive it from Run and should fall back to a
// concrete representation.
type DegeneracyError struct {
	// Round is the round the limit was exceeded in (0: at Start).
	Round int
	// Classes is the class count that exceeded the limit.
	Classes int
	// Limit is the configured class budget.
	Limit int
}

// Error implements error.
func (e *DegeneracyError) Error() string {
	return fmt.Sprintf("engine: counting representation degenerated to %d classes (limit %d) at round %d",
		e.Classes, e.Limit, e.Round)
}

// countClass is one (identifier, protocol-state) equivalence class: a
// single protocol instance standing for size member slots. Membership
// itself lives only in countingRep.classOf; the class keeps its leader —
// its smallest member, whose slot stamps the class's sends on the fast
// path and whose inbox it receives on the slow path — and its size.
type countClass struct {
	id     hom.Identifier
	proc   Process
	leader int32
	size   int32
	idx    int32      // the class's entry in countingRep.table: what classOf holds for its members
	sends  []msg.Send // the current round's sends
	halted bool       // slow path: the class takes no step this round

	// The class's decision and the round it was polled in (0: undecided).
	// Once set, every member's decision is in the Result — recorded by the
	// one pass over the slots that round — and the class is not polled
	// again.
	decision  hom.Value
	decidedAt int

	// Slow-path scratch of one refine pass and the delivery after it.
	key    int32       // refine: the leader's key
	part   *countClass // refine: the part the class's last diverging member joined
	origin *countClass // refine: the class a part was cut from
	in     *msg.Inbox  // the leader's inbox, held until the class steps
}

// fillCache is the cross-round fill cache of one identifier group on
// the counting fast path: when a round's weighted delivery sequence —
// (KeyID, multiplicity) pairs in stamp order — matches the cached
// round's exactly, the filled inbox (dedup, dense counts, sort index)
// is reused instead of rebuilt. Steady-state phases where every class
// repeats its sends hit every round.
type fillCache struct {
	kids []msg.KeyID
	w    []int32
	fp   msg.StateHash
	in   *msg.Inbox
}

// partKey names one part of a refine pass: the class it is cut from and
// the key its members share.
type partKey struct{ origin, key int32 }

// countingRep is the counting state representation: correct processes
// are held as (identifier-group, protocol-state) equivalence classes
// with multiplicities, so memory and stepping cost scale with the
// number of classes (at least l, one per inhabited identifier group)
// instead of n. One protocol instance per class is stepped once and
// counted; classes split lazily on any divergence-inducing event
// (targeted sends, per-link drops or faults, crash and stall windows)
// and re-unify when their states re-converge (msg.StateHash over the
// protocol state).
//
// Two execution paths are selected statically at Start:
//
//   - Fast path (no adversary, no faults, no visibility restriction, no
//     recording, no invariants, no timing): classes can never diverge,
//     so the representation routes the round itself — one stamp per
//     class per send, multiplied through the class multiplicity into
//     the statistics — and delivers one weighted inbox per identifier
//     group (msg.NewPooledInboxWeighted), cached across rounds.
//   - Slow path (anything that can diverge class members): sends are
//     registered per member slot and routed by the engine's normal
//     Router path, so every mask, fault and timing rule applies
//     unchanged; reception partitions each class by the members' actual
//     delivered batches and splits where they differ. This is the path
//     the byte-parity suites pin against Concrete.
//
// Requirements: the process factory must be a pure function of the
// slot's identifier and input (it is invoked once per class, for the
// leader slot). Protocols implementing Cloner collapse into one class
// per (identifier, input); others fall back to one class per slot.
//
// Per slot the representation keeps one int32 — the table entry its
// class resolves through — and nothing else: a merge adds sizes and
// forwards the merged-away entry, so it writes no slot, and the slow
// path's per-slot work is one ascending pass over classOf per phase.
type countingRep struct {
	e          *Engine
	maxClasses int
	collapse   bool // processes implement Cloner: classes can span slots
	fast       bool // static fast path for the whole execution
	err        error
	classes    []*countClass // live classes, ascending by leader
	// table maps an entry to its live class: a live class sits at its own
	// idx, and an entry merged away forwards to the survivor until a
	// refine pass has re-pointed its slots and freed it. Nil when free.
	table   []*countClass
	free    []int32                 // freed table entries, reused by the next split
	classOf []int32                 // per slot: table entry of its class, -1 when corrupted
	parts   map[partKey]*countClass // refine scratch, cleared after every pass

	// Fast-path scratch, indexed by identifier-1.
	groupCount []int        // per identifier (1-based): total slots holding it
	groupIdx   [][]int32    // per group: the round's delivered arena indices
	groupW     [][]int32    // per group: multiplicities, parallel to groupIdx
	roundIn    []*msg.Inbox // per group: the round's inbox (cache-owned)
	caches     []*fillCache // per group: cross-round fill cache
}

// Counting returns the counting state representation with no class
// budget: executions that force many classes degrade toward concrete
// cost but never fail. See countingRep for the representation contract.
func Counting() StateRep { return &countingRep{} }

// CountingLimited is Counting with a class budget: when an execution
// splits into more than maxClasses equivalence classes, the run aborts
// with a *DegeneracyError instead of silently degrading to concrete
// cost. maxClasses <= 0 means unlimited.
func CountingLimited(maxClasses int) StateRep { return &countingRep{maxClasses: maxClasses} }

func (r *countingRep) Describe() string {
	if r.maxClasses > 0 {
		return fmt.Sprintf("counting(max=%d)", r.maxClasses)
	}
	return "counting"
}

// processAt implements processOwner.
func (r *countingRep) processAt(slot int) Process {
	if r.classOf == nil || r.classOf[slot] < 0 {
		return nil
	}
	return r.table[r.classOf[slot]].proc
}

// Err implements repFailer.
func (r *countingRep) Err() error { return r.err }

// newClass registers a class in the table (reusing a freed entry) and
// appends it to the live list; callers restore the leader order and
// point the members' classOf entries at it.
func (r *countingRep) newClass(c *countClass) *countClass {
	if k := len(r.free); k > 0 {
		c.idx, r.free = r.free[k-1], r.free[:k-1]
		r.table[c.idx] = c
	} else {
		c.idx = int32(len(r.table))
		r.table = append(r.table, c)
	}
	r.classes = append(r.classes, c)
	return c
}

func (r *countingRep) Start(e *Engine) error {
	// One value may serve several executions, one after the other:
	// nothing of the previous one carries over.
	*r = countingRep{e: e, maxClasses: r.maxClasses}
	cfg := &e.cfg
	n := e.n

	first := 0
	for first < n && e.isBad[first] {
		first++
	}
	if first == n {
		return nil // nothing correct to represent
	}

	// Probe the factory for the collapse capability before Init (the
	// probe instance is reused as its class's process).
	p0 := cfg.NewProcess(first)
	if p0 == nil {
		return ErrNilProcessFactory
	}
	_, r.collapse = p0.(Cloner)

	// Static path selection: the fast path is sound exactly when no
	// event in this execution can diverge two members of a class or
	// observe per-slot routing (traffic records and frontier hashes are
	// per (send, recipient) pair).
	r.fast = cfg.Adversary == nil && cfg.Visibility == nil && cfg.Faults == nil &&
		!cfg.RecordTraffic && !cfg.FrontierHash && !cfg.Invariants && !e.router.timing

	// One classification pass: every correct slot gets the table entry
	// of its class — (identifier, input) under collapse, itself
	// otherwise — in ascending slot order, so classes are created, and
	// their processes built and initialised, in leader order.
	r.classOf = make([]int32, n)
	find := r.classFinder()
	for s := 0; s < n; s++ {
		if e.isBad[s] {
			r.classOf[s] = -1
			continue
		}
		ci := int32(-1)
		var at *int32
		if r.collapse {
			at = find(cfg.Assignment[s], cfg.Inputs[s])
			ci = *at - 1
		}
		if ci < 0 {
			p := p0
			if s != first {
				if p = cfg.NewProcess(s); p == nil {
					return ErrNilProcessFactory
				}
			}
			p.Init(Context{ID: cfg.Assignment[s], Input: cfg.Inputs[s], Params: cfg.Params})
			ci = r.newClass(&countClass{id: cfg.Assignment[s], proc: p, leader: int32(s)}).idx
			// A process that cannot clone (a factory mixing implementations
			// across slots) keeps its class a singleton, so no split ever
			// needs a missing clone.
			if _, ok := p.(Cloner); ok && at != nil {
				*at = ci + 1
			}
		}
		r.table[ci].size++
		r.classOf[s] = ci
	}
	if r.maxClasses > 0 && len(r.classes) > r.maxClasses {
		return &DegeneracyError{Round: 0, Classes: len(r.classes), Limit: r.maxClasses}
	}
	if r.fast {
		// No slot is corrupted on the fast path, so the classes cover
		// every holder of an identifier.
		L := cfg.Params.L
		r.groupCount = make([]int, L+1)
		for _, c := range r.classes {
			r.groupCount[c.id] += int(c.size)
		}
		r.groupIdx = make([][]int32, L)
		r.groupW = make([][]int32, L)
		r.roundIn = make([]*msg.Inbox, L)
		r.caches = make([]*fillCache, L)
	}
	return nil
}

// classFinder returns Start's (identifier, input) → class lookup: the
// pair's cell, holding its class's table entry + 1 (0 while the pair has
// no class). Small inputs — the binary domain, in practice — index a
// dense per-identifier row, so the path a million slots take neither
// hashes nor branches on the input; the rest go through a map.
func (r *countingRep) classFinder() func(id hom.Identifier, in hom.Value) *int32 {
	const denseInputs = 4
	type classKey struct {
		id hom.Identifier
		in hom.Value
	}
	dense := make([]int32, (r.e.cfg.Params.L+1)*denseInputs)
	var sparse map[classKey]*int32
	return func(id hom.Identifier, in hom.Value) *int32 {
		if uint(in) < denseInputs {
			return &dense[int(id)*denseInputs+int(in)]
		}
		at := sparse[classKey{id, in}]
		if at == nil {
			if sparse == nil {
				sparse = make(map[classKey]*int32)
			}
			at = new(int32)
			sparse[classKey{id, in}] = at
		}
		return at
	}
}

func (r *countingRep) PrepareRound(round int) {
	e := r.e
	if !r.fast && r.err == nil {
		// Split classes whose members diverge on halting before any
		// Prepare: the halted part freezes at the pre-Prepare state,
		// exactly as a concrete halted slot keeps its state while
		// classmates advance.
		parts := r.refine(func(s int, _ *countClass) int32 {
			if e.Halted(s, round) {
				return 1
			}
			return 0
		})
		if len(parts) > 0 {
			r.sortClasses()
		}
		for _, c := range r.classes {
			c.halted = e.Halted(int(c.leader), round)
		}
		r.noteClassCount(round)
	}
	for _, c := range r.classes {
		c.sends = nil
		if !c.halted && r.err == nil {
			c.sends = c.proc.Prepare(round)
		}
	}
	if r.fast {
		return
	}
	// Every member registers its class's send slice; the Router stamps
	// each member's copy separately, so stamp order, intern order and the
	// send budget match the concrete representation's.
	for s, ci := range r.classOf {
		var sends []msg.Send
		if ci >= 0 && len(r.table[ci].sends) > 0 {
			sends = r.table[ci].sends
		}
		e.SetSends(s, sends)
	}
}

// refine is the slow path's one split: partition refinement of classOf
// by (class, key), in one ascending pass over the slots. A class's
// leader, its smallest member, is met first and fixes the class's key;
// a member with another key moves to the part of its class holding
// that key (partFor), created at its first member — so parts are
// created in ascending leader order. Key -1 is unique: such a member
// always starts a part of its own. The pass also re-points every slot
// at its live class, after which the entries merges forwarded are free
// for reuse. It returns the parts, appended to r.classes in creation
// order; the caller restores the leader order.
func (r *countingRep) refine(key func(slot int, c *countClass) int32) []*countClass {
	start := len(r.classes)
	for s, ci := range r.classOf {
		if ci < 0 {
			continue
		}
		c := r.table[ci]
		k := key(s, c)
		switch {
		case int(c.leader) == s:
			c.key, c.part = k, nil
		case k >= 0 && k == c.key:
		default:
			if p := c.part; k < 0 || p == nil || p.key != k {
				c.part = r.partFor(c, s, k)
			}
			c.size--
			c.part.size++
			r.classOf[s] = c.part.idx
			continue
		}
		r.classOf[s] = c.idx
	}
	clear(r.parts)
	for i, t := range r.table {
		if t != nil && t.idx != int32(i) {
			r.table[i] = nil
			r.free = append(r.free, int32(i))
		}
	}
	return r.classes[start:]
}

// partFor returns the part of c holding key k in the current refine
// pass, creating it — led by slot s, with a clone of c's process and c's
// decision record — when the pass has not met one. Key -1 is never
// registered, so it always creates.
func (r *countingRep) partFor(c *countClass, s int, k int32) *countClass {
	pk := partKey{c.idx, k}
	if p := r.parts[pk]; p != nil {
		return p
	}
	p := r.newClass(&countClass{id: c.id, proc: r.cloneProc(c.proc), leader: int32(s), key: k,
		origin: c, decision: c.decision, decidedAt: c.decidedAt})
	if k >= 0 {
		if r.parts == nil {
			r.parts = make(map[partKey]*countClass)
		}
		r.parts[pk] = p
	}
	return p
}

// cloneProc forks one class process. Classes with more than one member
// only exist in collapse mode, where every process passed the Cloner
// check at Start, so the assertion holds.
func (r *countingRep) cloneProc(p Process) Process {
	return p.(Cloner).CloneProcess()
}

func (r *countingRep) sortClasses() {
	slices.SortFunc(r.classes, func(a, b *countClass) int { return cmp.Compare(a.leader, b.leader) })
}

func (r *countingRep) noteClassCount(round int) {
	if r.err == nil && r.maxClasses > 0 && len(r.classes) > r.maxClasses {
		r.err = &DegeneracyError{Round: round, Classes: len(r.classes), Limit: r.maxClasses}
	}
}

// RouteRound implements roundRouter: on the fast path the round's sends
// are stamped once per class and multiplied through the class
// multiplicities into the statistics and the send budget, and the
// per-group delivery sequences are collected for weighted reception.
// On the slow path it returns false and the engine routes normally.
func (r *countingRep) RouteRound(round int) bool {
	if !r.fast {
		return false
	}
	rt := r.e.router
	n := r.e.n
	L := r.e.cfg.Params.L
	for gi := range r.groupIdx {
		r.groupIdx[gi] = r.groupIdx[gi][:0]
		r.groupW[gi] = r.groupW[gi][:0]
	}
	for _, c := range r.classes {
		if len(c.sends) == 0 {
			continue
		}
		mult := int(c.size)
		for _, s := range c.sends {
			si := rt.stamp(int(c.leader), s.Body, s.Memo)
			rt.totalStamped += mult - 1 // each member's copy counts against MaxSends
			keyLen := int(rt.sendKeyLen[si])
			switch s.Kind {
			case msg.ToAll:
				rt.stats.MessagesSent += mult * n
				rt.stats.MessagesDelivered += mult * n
				rt.stats.PayloadBytes += keyLen * mult * n
				for gi := range r.groupIdx {
					r.groupIdx[gi] = append(r.groupIdx[gi], si)
					r.groupW[gi] = append(r.groupW[gi], int32(mult))
				}
			case msg.ToIdentifier:
				if !s.To.IsValid(L) {
					continue // matches no slot, exactly like concrete routing
				}
				cnt := r.groupCount[s.To]
				rt.stats.MessagesSent += mult * cnt
				rt.stats.MessagesDelivered += mult * cnt
				rt.stats.PayloadBytes += keyLen * mult * cnt
				gi := int(s.To) - 1
				r.groupIdx[gi] = append(r.groupIdx[gi], si)
				r.groupW[gi] = append(r.groupW[gi], int32(mult))
			}
		}
	}
	return true
}

func (r *countingRep) DeliverRound(round int) {
	if r.fast {
		r.deliverFast(round)
		return
	}
	r.deliverSlow(round)
}

func (r *countingRep) deliverFast(round int) {
	decided := false
	for _, c := range r.classes {
		gi := int(c.id) - 1
		in := r.roundIn[gi]
		if in == nil {
			in = r.fillGroup(gi)
			r.roundIn[gi] = in
		}
		c.proc.Receive(round, in)
		decided = r.poll(c, round) || decided
	}
	if decided {
		r.recordDecisions(round)
	}
	for gi := range r.roundIn {
		r.roundIn[gi] = nil // inboxes stay owned by the fill caches
	}
	r.mergeClasses()
}

// fillGroup returns the identifier group's weighted inbox for the
// current round, reusing the cached fill when the round's (KeyID,
// multiplicity) sequence matches the cached one exactly.
func (r *countingRep) fillGroup(gi int) *msg.Inbox {
	rt := r.e.router
	idx, w := r.groupIdx[gi], r.groupW[gi]
	fp := msg.NewStateHash().Bool(r.e.cfg.Params.Numerate)
	for i, si := range idx {
		fp = fp.Uint64(uint64(rt.arena.KID(si))).Uint64(uint64(w[i]))
	}
	c := r.caches[gi]
	if c == nil {
		c = &fillCache{}
		r.caches[gi] = c
	}
	if c.in != nil && c.fp == fp && c.matches(rt, idx, w) {
		return c.in
	}
	if c.in != nil {
		c.in.Recycle()
	}
	c.fp = fp
	c.kids = c.kids[:0]
	for _, si := range idx {
		c.kids = append(c.kids, rt.arena.KID(si))
	}
	c.w = append(c.w[:0], w...)
	c.in = msg.NewPooledInboxWeighted(r.e.cfg.Params.Numerate, rt.Arena(), idx, w)
	return c.in
}

// matches confirms a fingerprint hit exactly: same KeyID sequence, same
// multiplicities. KeyIDs are stable for the whole execution (the intern
// table persists across rounds), so equal sequences mean equal inbox
// contents.
func (c *fillCache) matches(rt *Router, idx, w []int32) bool {
	if len(idx) != len(c.kids) || !slices.Equal(w, c.w) {
		return false
	}
	for i, si := range idx {
		if rt.arena.KID(si) != c.kids[i] {
			return false
		}
	}
	return true
}

func (r *countingRep) deliverSlow(round int) {
	rt := r.e.router
	// Split every stepping class along the router's reception partition
	// (Router.ReceptionClass: two members received the same inbox exactly
	// when they report the same class >= 0). Halted classes take no step
	// this round and stay whole. Parts are forked from the pre-Receive
	// class — process state and decision record both — before any class
	// steps: a fork made after its origin decided would inherit a decision
	// its own members were never recorded with.
	var parts []*countClass
	if r.err == nil {
		parts = r.refine(func(s int, c *countClass) int32 {
			if c.halted {
				return 0
			}
			return int32(rt.ReceptionClass(s))
		})
		r.noteClassCount(round)
	}
	// Draw every correct slot's inbox in ascending slot order (the
	// StateRep contract — shared-reception classes drain their reference
	// counts through these draws). A stepping class keeps its leader's,
	// every member's being identical by construction; the rest are
	// discarded (crashed recipients lost the round's messages at the
	// router; stalled ones have them held until they wake).
	for s, ci := range r.classOf {
		if ci < 0 {
			continue
		}
		in := rt.Inbox(s)
		if c := r.table[ci]; r.err == nil && !c.halted && int(c.leader) == s {
			c.in = in
		} else {
			in.Recycle()
		}
	}
	if r.err != nil {
		return
	}
	// Step in the order the classes stood before the split, each
	// followed by the parts cut from it.
	split := len(parts) > 0
	slices.SortStableFunc(parts, func(a, b *countClass) int { return cmp.Compare(a.origin.leader, b.origin.leader) })
	decided := false
	for _, c := range r.classes[:len(r.classes)-len(parts)] {
		decided = r.step(c, round) || decided
		for len(parts) > 0 && parts[0].origin == c {
			decided = r.step(parts[0], round) || decided
			parts = parts[1:]
		}
	}
	if split {
		r.sortClasses()
	}
	if decided {
		r.recordDecisions(round)
	}
	r.mergeClasses()
}

// step runs one slow-path class's Receive against its leader's inbox
// and polls its decision; it reports whether the class decided.
func (r *countingRep) step(c *countClass, round int) bool {
	c.origin = nil // the split is over: keep no dead origin reachable
	if c.halted {
		return false
	}
	c.proc.Receive(round, c.in)
	c.in.Recycle()
	c.in = nil
	return r.poll(c, round)
}

// poll records an undecided class's decision, once: it reports whether
// the class decided this round.
func (r *countingRep) poll(c *countClass, round int) bool {
	if c.decidedAt != 0 {
		return false
	}
	v, ok := c.proc.Decision()
	if ok {
		c.decision, c.decidedAt = v, round
	}
	return ok
}

// recordDecisions records the decision of every slot whose class
// decided this round, in one ascending pass over the slots — the Result
// arrays are written in memory order.
func (r *countingRep) recordDecisions(round int) {
	for s, ci := range r.classOf {
		if ci >= 0 {
			if c := r.table[ci]; c.decidedAt == round {
				r.e.RecordDecision(s, c.decision, true, round)
			}
		}
	}
}

// mergeClasses re-unifies classes of one identifier group whose states
// re-converged, detected by the protocol's StateFingerprint (classes of
// protocols without StateHasher never merge). The survivor is the class
// with the smaller leader: it takes the merged class's size, and the
// merged class's table entry forwards to it, so no slot is written. The
// merged-in process is released.
func (r *countingRep) mergeClasses() {
	if !r.collapse || len(r.classes) < 2 {
		return
	}
	type mergeKey struct {
		id hom.Identifier
		fp msg.StateHash
	}
	var seen map[mergeKey]*countClass
	out := r.classes[:0]
	for _, c := range r.classes {
		h, ok := c.proc.(StateHasher)
		if !ok {
			out = append(out, c)
			continue
		}
		if seen == nil {
			seen = make(map[mergeKey]*countClass)
		}
		k := mergeKey{c.id, h.StateFingerprint()}
		prev, dup := seen[k]
		if !dup {
			seen[k] = c
			out = append(out, c)
			continue
		}
		prev.size += c.size
		if c.decidedAt == 0 {
			prev.decidedAt = 0 // poll again: not every member is recorded
		}
		if rel, relOK := c.proc.(Releaser); relOK {
			rel.Release()
		}
		r.table[c.idx] = prev
	}
	if len(out) == len(r.classes) {
		return
	}
	clear(r.classes[len(out):])
	r.classes = out
	// Entries forwarded to a class merged away this round now forward to
	// its survivor — one hop, as survivors are never merged away in the
	// round they survive — so every entry resolves to a live class again.
	for i, t := range r.table {
		if t != nil {
			r.table[i] = r.table[t.idx]
		}
	}
}

func (r *countingRep) Stop() {
	if r.e == nil {
		return
	}
	for _, c := range r.classes {
		if c.in != nil {
			c.in.Recycle()
		}
		if rel, ok := c.proc.(Releaser); ok {
			rel.Release()
		}
	}
	for _, fc := range r.caches {
		if fc != nil && fc.in != nil {
			fc.in.Recycle()
			fc.in = nil
		}
	}
}

// ClassCount reports the live equivalence-class count (tests and
// diagnostics; concrete representations would report n).
func (r *countingRep) ClassCount() int { return len(r.classes) }
