package engine

import (
	"fmt"
	"slices"
	"sort"

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
// single protocol instance standing for every member slot. Members are
// kept ascending; the first member is the class leader, whose slot
// stamps the class's sends on the fast path.
type countClass struct {
	id      hom.Identifier
	proc    Process
	members []int32
	idx     int32      // the class's entry in countingRep.table: what classOf holds for its members
	sends   []msg.Send // fast path: the current round's sends
	halted  bool       // slow path: the class takes no step this round

	// The class's decision and the round it was polled in (0: undecided).
	// Once set, every member's decision is in the Result — recorded by the
	// fast path's one pass over the slots that round — and the class is
	// not polled again.
	decision  hom.Value
	decidedAt int
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
// Per slot the representation keeps one int32 — the slot's class — and
// the slot's entry in its class's member list; everything else is per
// class.
type countingRep struct {
	e          *Engine
	maxClasses int
	collapse   bool // processes implement Cloner: classes can span slots
	fast       bool // static fast path for the whole execution
	err        error
	classes    []*countClass // live classes, ascending by leader slot
	table      []*countClass // by countClass.idx; nil where a merged-away class freed its entry
	free       []int32       // freed table entries, reused by the next split
	classOf    []int32       // per slot: table entry of its class, -1 when corrupted

	// Slow-path scratch: the round's inboxes, drawn for every correct
	// slot in ascending order (pass A) and consumed per class (pass B),
	// and the split's part lookup, indexed by the router's reception
	// class (a slot; 0 = no part yet, else part index + 1).
	inboxes []*msg.Inbox
	partAt  []int32

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
// appends it to the live list; callers restore the leader order. Its
// members' classOf entries are the caller's to set (adopt).
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

// adopt points the members' class entries at c.
func (r *countingRep) adopt(c *countClass, members []int32) {
	for _, m := range members {
		r.classOf[m] = c.idx
	}
}

// initProc builds and initialises the process of the class led by
// leader; the factory probe instance stands for its own slot's class.
func (r *countingRep) initProc(leader int, probe Process, probeSlot int) (Process, error) {
	cfg := &r.e.cfg
	p := probe
	if leader != probeSlot {
		if p = cfg.NewProcess(leader); p == nil {
			return nil, ErrNilProcessFactory
		}
	}
	p.Init(Context{ID: cfg.Assignment[leader], Input: cfg.Inputs[leader], Params: cfg.Params})
	return p, nil
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
	// otherwise — in ascending slot order, so classes are created in
	// leader order. Member lists are then carved, exactly sized, out of
	// one backing array (capacity clamped, so a later merge reallocates
	// instead of growing into a neighbour).
	r.classOf = make([]int32, n)
	find := r.classFinder()
	var sizes []int32
	for s := 0; s < n; s++ {
		if e.isBad[s] {
			r.classOf[s] = -1
			continue
		}
		ci := int32(len(sizes))
		if r.collapse {
			ci = find(cfg.Assignment[s], cfg.Inputs[s], ci)
		}
		if int(ci) == len(sizes) {
			sizes = append(sizes, 0)
			r.newClass(&countClass{id: cfg.Assignment[s]})
		}
		sizes[ci]++
		r.classOf[s] = ci
	}
	backing := make([]int32, n-len(e.corrupted))
	off := int32(0)
	for ci, c := range r.table {
		c.members = backing[off : off : off+sizes[ci]]
		off += sizes[ci]
	}
	for s, ci := range r.classOf {
		if ci >= 0 {
			c := r.table[ci]
			c.members = append(c.members, int32(s))
		}
	}
	for _, c := range r.classes {
		p, err := r.initProc(int(c.members[0]), p0, first)
		if err != nil {
			return err
		}
		c.proc = p
	}
	// A mixed factory (some slots' processes cannot clone) breaks the
	// collapse assumption: degrade the affected classes to per-slot
	// singletons so splitting never needs a missing clone.
	if err := r.splitUncloneable(p0, first); err != nil {
		return err
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
			r.groupCount[c.id] += len(c.members)
		}
		r.groupIdx = make([][]int32, L)
		r.groupW = make([][]int32, L)
		r.roundIn = make([]*msg.Inbox, L)
		r.caches = make([]*fillCache, L)
	} else {
		r.inboxes = make([]*msg.Inbox, n)
		r.partAt = make([]int32, n)
	}
	return nil
}

// classFinder returns Start's (identifier, input) → class lookup: the
// table entry of the pair's class, or fresh (registering the pair under
// it) when the pair is new. Small inputs — the binary domain, in
// practice — index a dense per-identifier row, so the path a million
// slots take neither hashes nor branches on the input; the rest go
// through a map.
func (r *countingRep) classFinder() func(id hom.Identifier, in hom.Value, fresh int32) int32 {
	const denseInputs = 4
	type classKey struct {
		id hom.Identifier
		in hom.Value
	}
	dense := make([]int32, (r.e.cfg.Params.L+1)*denseInputs) // 0 = unseen, else entry + 1
	var sparse map[classKey]int32
	return func(id hom.Identifier, in hom.Value, fresh int32) int32 {
		if uint(in) < denseInputs {
			at := &dense[int(id)*denseInputs+int(in)]
			if *at == 0 {
				*at = fresh + 1
			}
			return *at - 1
		}
		if ci, ok := sparse[classKey{id, in}]; ok {
			return ci
		}
		if sparse == nil {
			sparse = make(map[classKey]int32)
		}
		sparse[classKey{id, in}] = fresh
		return fresh
	}
}

// splitUncloneable degrades every class whose process lacks Cloner into
// per-slot singleton classes (only reachable with a factory that mixes
// cloneable and uncloneable implementations across slots).
func (r *countingRep) splitUncloneable(probe Process, probeSlot int) error {
	changed := false
	for _, c := range r.classes { // singletons appended below are not revisited
		if _, ok := c.proc.(Cloner); ok || len(c.members) == 1 {
			continue
		}
		changed = true
		rest := c.members[1:]
		c.members = c.members[:1:1]
		for _, m := range rest {
			p, err := r.initProc(int(m), probe, probeSlot)
			if err != nil {
				return err
			}
			r.fork(c, p, []int32{m})
		}
	}
	if changed {
		r.sortClasses()
	}
	return nil
}

func (r *countingRep) PrepareRound(round int) {
	if r.fast {
		for _, c := range r.classes {
			c.sends = c.proc.Prepare(round)
		}
		return
	}
	e := r.e
	for s := 0; s < e.n; s++ {
		e.SetSends(s, nil)
	}
	if r.err != nil {
		return
	}
	// Split classes whose members diverge on halting before any Prepare:
	// the halted part freezes at the pre-Prepare state, exactly as a
	// concrete halted slot keeps its state while classmates advance.
	r.splitHalted(round)
	if r.err != nil {
		return
	}
	for _, c := range r.classes {
		if c.halted {
			continue
		}
		sends := c.proc.Prepare(round)
		if len(sends) == 0 {
			continue
		}
		// Every member registers the same send slice; the Router stamps
		// each member's copy separately, so stamp order, intern order
		// and the send budget match the concrete representation's.
		for _, m := range c.members {
			e.SetSends(int(m), sends)
		}
	}
}

// fork splits part (a strict, ascending subset of c's members, already
// removed from c.members by the caller) into a new class stepping proc.
func (r *countingRep) fork(c *countClass, proc Process, part []int32) *countClass {
	nc := r.newClass(&countClass{id: c.id, proc: proc, members: part, decision: c.decision, decidedAt: c.decidedAt})
	r.adopt(nc, part)
	return nc
}

// splitHalted partitions every class by this round's Halted verdict
// (pure per slot and round) and splits the mixed ones.
func (r *countingRep) splitHalted(round int) {
	e := r.e
	split := false
	for _, c := range r.classes { // forks appended below are not revisited
		nHalted := 0
		for _, m := range c.members {
			if e.Halted(int(m), round) {
				nHalted++
			}
		}
		c.halted = nHalted == len(c.members)
		if nHalted == 0 || c.halted {
			continue
		}
		live := make([]int32, 0, len(c.members)-nHalted)
		halted := make([]int32, 0, nHalted)
		for _, m := range c.members {
			if e.Halted(int(m), round) {
				halted = append(halted, m)
			} else {
				live = append(live, m)
			}
		}
		c.members = live
		r.fork(c, r.cloneProc(c.proc), halted).halted = true
		split = true
	}
	if split {
		r.sortClasses()
	}
	r.noteClassCount(round)
}

// cloneProc forks one class process. Classes with more than one member
// only exist in collapse mode, where every process passed the Cloner
// probe (splitUncloneable degraded the rest), so the assertion holds.
func (r *countingRep) cloneProc(p Process) Process {
	return p.(Cloner).CloneProcess()
}

func (r *countingRep) sortClasses() {
	sort.Slice(r.classes, func(i, j int) bool {
		return r.classes[i].members[0] < r.classes[j].members[0]
	})
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
		leader := int(c.members[0])
		mult := len(c.members)
		for _, s := range c.sends {
			si := rt.stamp(leader, s.Body, s.Memo)
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
	e := r.e
	anyDecided := false
	for _, c := range r.classes {
		gi := int(c.id) - 1
		in := r.roundIn[gi]
		if in == nil {
			in = r.fillGroup(gi)
			r.roundIn[gi] = in
		}
		c.proc.Receive(round, in)
		if c.decidedAt == 0 {
			if v, ok := c.proc.Decision(); ok {
				c.decision, c.decidedAt = v, round
				anyDecided = true
			}
		}
	}
	if anyDecided {
		// One ascending pass over the slots instead of one strided pass
		// per class: the Result arrays are written in memory order.
		for s, ci := range r.classOf {
			if c := r.table[ci]; c.decidedAt == round {
				e.RecordDecision(s, c.decision, true, round)
			}
		}
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
	e := r.e
	rt := e.router
	// Pass A: draw every correct slot's inbox in ascending slot order
	// (the StateRep contract — shared-reception classes drain their
	// reference counts through these draws).
	for to := 0; to < e.n; to++ {
		if !e.isBad[to] {
			r.inboxes[to] = rt.Inbox(to)
		}
	}
	if r.err != nil {
		r.recycleAll()
		return
	}
	// Pass B: per class, split the members along the router's reception
	// partition. Forks are made from the pre-Receive class — process
	// state and decision record both — before any part steps: a fork made
	// after the leader's part decided would inherit a decision its own
	// members were never recorded with.
	split := false
	for _, c := range r.classes { // forks appended below are not revisited
		if c.halted {
			// No step this round: the inboxes are drawn and discarded
			// (crashed recipients lost the round's messages at the
			// router; stalled ones have them held until they wake).
			for _, m := range c.members {
				r.recycleSlot(int(m))
			}
			continue
		}
		parts := r.splitByReception(c)
		forks := make([]*countClass, len(parts))
		for i, part := range parts {
			forks[i] = r.fork(c, r.cloneProc(c.proc), part)
		}
		r.receivePart(c, round)
		for _, f := range forks {
			r.receivePart(f, round)
			split = true
		}
	}
	if split {
		r.sortClasses()
	}
	r.noteClassCount(round)
	r.mergeClasses()
}

// receivePart steps one class: one Receive against the leader's inbox
// (every member's inbox is identical by construction), every member's
// inbox recycled, one decision poll recorded for every member.
func (r *countingRep) receivePart(c *countClass, round int) {
	e := r.e
	c.proc.Receive(round, r.inboxes[c.members[0]])
	for _, m := range c.members {
		r.recycleSlot(int(m))
	}
	if c.decidedAt != 0 {
		return
	}
	v, ok := c.proc.Decision()
	if !ok {
		return
	}
	for _, m := range c.members {
		e.RecordDecision(int(m), v, true, round)
	}
	c.decision, c.decidedAt = v, round
}

// splitByReception cuts a class along the router's reception partition
// of the round (Router.ReceptionClass: two members received the same
// inbox exactly when they report the same class >= 0). The leader's part
// stays in c.members; the others are returned in first-seen — ascending
// leader — order, nil when every member received the leader's inbox.
func (r *countingRep) splitByReception(c *countClass) [][]int32 {
	rt := r.e.router
	lead := rt.ReceptionClass(int(c.members[0]))
	cut := 1
	if lead >= 0 {
		for cut < len(c.members) && rt.ReceptionClass(int(c.members[cut])) == lead {
			cut++
		}
	}
	if cut == len(c.members) {
		return nil
	}
	var parts [][]int32
	keep := c.members[:cut:cut]
	for _, m := range c.members[cut:] {
		cls := rt.ReceptionClass(int(m))
		switch {
		case cls >= 0 && cls == lead:
			keep = append(keep, m)
		case cls >= 0 && r.partAt[cls] > 0:
			p := r.partAt[cls] - 1
			parts[p] = append(parts[p], m)
		default:
			parts = append(parts, []int32{m})
			if cls >= 0 {
				r.partAt[cls] = int32(len(parts))
			}
		}
	}
	for _, part := range parts {
		if cls := rt.ReceptionClass(int(part[0])); cls >= 0 {
			r.partAt[cls] = 0
		}
	}
	c.members = keep
	return parts
}

// mergeClasses re-unifies classes of one identifier group whose states
// re-converged, detected by the protocol's StateFingerprint (classes of
// protocols without StateHasher never merge). The surviving class is
// the one with the smallest leader; the merged-in process is released.
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
		prev.members = mergeAscending(prev.members, c.members)
		if c.decidedAt == 0 {
			prev.decidedAt = 0 // poll again: not every member is recorded
		}
		r.adopt(prev, c.members)
		if rel, relOK := c.proc.(Releaser); relOK {
			rel.Release()
		}
		r.table[c.idx] = nil
		r.free = append(r.free, c.idx)
	}
	clear(r.classes[len(out):])
	r.classes = out
}

// mergeAscending merges two ascending slot lists into a new one.
func mergeAscending(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

func (r *countingRep) recycleSlot(s int) {
	if in := r.inboxes[s]; in != nil {
		in.Recycle()
		r.inboxes[s] = nil
	}
}

func (r *countingRep) recycleAll() {
	for s := range r.inboxes {
		r.recycleSlot(s)
	}
}

func (r *countingRep) Stop() {
	if r.e == nil {
		return
	}
	for _, c := range r.classes {
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
	r.recycleAll()
}

// ClassCount reports the live equivalence-class count (tests and
// diagnostics; concrete representations would report n).
func (r *countingRep) ClassCount() int { return len(r.classes) }
