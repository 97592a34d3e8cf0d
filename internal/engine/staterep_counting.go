package engine

import (
	"cmp"
	"slices"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// countClass is one (identifier, protocol-state) equivalence class: a
// single protocol instance standing for size member slots. Membership
// itself lives only in countingRep.classOf; the class keeps its leader —
// its smallest member, whose slot sends for the class in a weighted
// round and whose inbox it receives — and its size.
type countClass struct {
	id     hom.Identifier
	proc   Process
	leader int32
	size   int32
	idx    int32      // the class's entry in countingRep.table: what classOf holds for its members
	sends  []msg.Send // the current round's sends
	halted bool       // the class takes no step this round (crashed or stalled)

	// The class's decision and the round it was polled in (0: undecided).
	// Once set, every member's decision is in the Result — recorded by the
	// one pass over the slots that round — and the class is not polled
	// again.
	decision  hom.Value
	decidedAt int

	// Scratch of one refine pass and the delivery after it.
	key    int32       // the leader's key
	part   *countClass // the part the class's last diverging member joined
	origin *countClass // the class a part was cut from
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
// Every round goes through the Router, and what it costs is decided
// round by round. In a weighted round (Router.weighted: no link
// condition, visibility mask or traffic record can tell two senders of a
// group apart) each class sends once, from its leader, with its size as
// the multiplicity; in any other round every member sends its class's
// sends as its own, so each mask, fault and timing rule applies to it
// unchanged. Each stepping class receives its leader's inbox. Where a
// crash or stall window is live, classes first split on who takes a
// step; where the round could hand members different batches (a member
// was targeted, held or replayed into, or a mask applied), they split
// along the Router's reception partition. A round outside every such
// window costs O(classes), however many rounds before it did not.
//
// Requirements: the process factory must be a pure function of the
// slot's identifier and input (it is invoked once per class, for the
// leader slot). Protocols implementing Cloner collapse into one class
// per (identifier, input); others fall back to one class per slot, as
// does every protocol under Concrete.
//
// Per slot the representation keeps one int32 — the table entry its
// class resolves through — and nothing else: a merge adds sizes and
// forwards the merged-away entry, so it writes no slot, and a round's
// per-slot work, where it has any, is one ascending pass over classOf
// per phase.
type countingRep struct {
	e        *Engine
	concrete bool          // Concrete(): collapse off, every class one slot
	collapse bool          // classes can span slots: processes implement Cloner, and not concrete
	classes  []*countClass // live classes, ascending by leader
	// table maps an entry to its live class: a live class sits at its own
	// idx, and an entry merged away forwards to the survivor until a
	// refine pass has re-pointed its slots and freed it. Nil when free.
	table   []*countClass
	free    []int32                 // freed table entries, reused by the next split
	classOf []int32                 // per slot: table entry of its class, -1 when corrupted
	parts   map[partKey]*countClass // refine scratch, cleared after every pass

	// Merge scratch, reused every round: live classes per identifier
	// (zero between rounds) and the fingerprints of the round's mergeable
	// classes (cleared after every pass).
	perGroup []int32
	seen     map[mergeKey]*countClass

	decidedNow []decidedNow // recordDecisions scratch, one line per table entry
}

// mergeKey is what two classes must share to merge: their identifier
// and their protocol state's fingerprint.
type mergeKey struct {
	id hom.Identifier
	fp msg.StateHash
}

// Counting returns the engine's state representation, its default:
// correct processes held as equivalence classes of indistinguishable
// slots. See countingRep for the representation contract.
func Counting() StateRep { return &countingRep{} }

// Concrete returns Counting with collapse off: every class is one slot,
// one process state machine per slot, stepped in slot order.
func Concrete() StateRep { return &countingRep{concrete: true} }

func (r *countingRep) Describe() string {
	if r.concrete {
		return "concrete"
	}
	return "counting"
}

// processAt returns the process standing for the slot (nil when
// corrupted, or before Start).
func (r *countingRep) processAt(slot int) Process {
	if r.classOf == nil || r.classOf[slot] < 0 {
		return nil
	}
	return r.table[r.classOf[slot]].proc
}

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
	// nothing of the previous one carries over. The engine reads this
	// execution's processes through the binding (Engine.Process).
	*r = countingRep{e: e, concrete: r.concrete}
	e.held = r
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
	_, cloner := p0.(Cloner)
	r.collapse = cloner && !r.concrete
	// Size the class storage for the classes made here, in one block
	// while they fit: one per correct slot without collapse, one per
	// (identifier, binary input) with it.
	k := n - len(e.corrupted)
	if r.collapse {
		k = min(k, 2*cfg.Params.L)
	}
	slab := make([]countClass, k)
	r.table = make([]*countClass, 0, k)
	r.classes = make([]*countClass, 0, k)

	// lead creates the class slot s leads, its process built (the probe,
	// for the first correct slot) and initialised, and registers it in
	// the pair's cell, if any. A process that cannot clone (a factory
	// mixing implementations across slots) keeps its class a singleton,
	// so no split ever needs a missing clone.
	lead := func(s int, at *int32) (int32, error) {
		p := p0
		if s != first {
			if p = cfg.NewProcess(s); p == nil {
				return 0, ErrNilProcessFactory
			}
		}
		p.Init(Context{ID: cfg.Assignment[s], Input: cfg.Inputs[s], Params: cfg.Params})
		var c *countClass
		if len(slab) > 0 {
			c, slab = &slab[0], slab[1:]
		} else {
			c = new(countClass)
		}
		*c = countClass{id: cfg.Assignment[s], proc: p, leader: int32(s), size: 1}
		ci := r.newClass(c).idx
		if _, ok := p.(Cloner); ok && at != nil {
			*at = ci + 1
		}
		return ci, nil
	}

	// One classification pass: every correct slot gets the table entry
	// of its class — itself without collapse, (identifier, input) with
	// it — in ascending slot order, so classes are created, and their
	// processes built and initialised, in leader order. Under collapse a
	// slot costs one cell read and one count in the local histogram of
	// class sizes, assigned after the pass.
	isBad := e.isBad[:n]
	classOf := make([]int32, n)
	r.classOf = classOf
	var err error
	if !r.collapse {
		for s := range classOf {
			if isBad[s] {
				classOf[s] = -1
			} else if classOf[s], err = lead(s, nil); err != nil {
				return err
			}
		}
	} else {
		// An (identifier, input) pair's cell holds its class's table entry
		// + 1 (0 while it has none). Small inputs — the binary domain, in
		// practice — index a dense per-identifier row, so the path a
		// million slots take neither hashes nor calls; the rest go
		// through a map.
		const denseInputs = 4
		type classKey struct {
			id hom.Identifier
			in hom.Value
		}
		dense := make([]int32, (cfg.Params.L+1)*denseInputs)
		sparse := make(map[classKey]*int32)
		ids, inputs := cfg.Assignment[:n], cfg.Inputs[:n]
		sizes := make([]int32, 0, k) // members per table entry, leader included
		for s := range classOf {
			if isBad[s] {
				classOf[s] = -1
				continue
			}
			var at *int32
			if id, in := ids[s], inputs[s]; uint(in) < denseInputs {
				at = &dense[int(id)*denseInputs+int(in)]
			} else if at = sparse[classKey{id, in}]; at == nil {
				at = new(int32)
				sparse[classKey{id, in}] = at
			}
			ci := *at - 1
			if ci < 0 {
				if ci, err = lead(s, at); err != nil {
					return err
				}
				sizes = append(sizes, 0)
			}
			sizes[ci]++
			classOf[s] = ci
		}
		for ci, m := range sizes {
			r.table[ci].size = m
		}
	}
	// The classes, in leader order, count each group's correct holders:
	// hand the Router its group table instead of a pass over n slots.
	groups := make([]groupHolders, cfg.Params.L)
	for _, c := range r.classes {
		g := &groups[c.id-1]
		if g.correct == 0 {
			g.first = c.leader
		}
		g.correct += c.size
		g.slots += c.size
	}
	for _, s := range e.corrupted {
		groups[cfg.Assignment[s]-1].slots++
	}
	e.router.holders = groups
	return nil
}

func (r *countingRep) PrepareRound(round int) {
	e := r.e
	rt := e.router
	// Only a crash or stall window halts anyone. Inside one, split the
	// classes whose members diverge on halting before any Prepare: the
	// halted part freezes at the pre-Prepare state, exactly as a halted
	// slot under Concrete keeps its state while the others advance.
	halting := rt.lossRound || rt.stallRound
	if halting {
		parts := r.refine(func(s int, _ *countClass) int32 {
			if e.halted(s, round) {
				return 1
			}
			return 0
		})
		if len(parts) > 0 {
			r.sortClasses()
		}
	}
	for _, c := range r.classes {
		c.halted = halting && e.halted(int(c.leader), round)
		c.sends = nil
		if !c.halted {
			c.sends = c.proc.Prepare(round)
		}
	}
	if rt.weighted {
		// One send per class, standing for every member; an adversary
		// still sees each member's sends as its own.
		for _, c := range r.classes {
			e.send(int(c.leader), c.size, c.sends)
		}
		if e.correctSends != nil {
			for s, ci := range r.classOf {
				if ci >= 0 {
					e.correctSends[s] = r.table[ci].sends
				}
			}
		}
		return
	}
	// Every member sends its class's sends as its own, so stamp order,
	// intern order and the send budget match Concrete's, and every link
	// rule sees the member's slot.
	for s, ci := range r.classOf {
		if ci >= 0 {
			e.send(s, 1, r.table[ci].sends)
		}
	}
}

// refine is the one way classes split: partition refinement of classOf
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

func (r *countingRep) DeliverRound(round int) {
	rt := r.e.router
	// Split every stepping class along the router's reception partition
	// (Router.SharedWith: two members received the same inbox exactly
	// when they report the same class >= 0) — unless no member was
	// touched and no mask applied, when every member of a group received
	// its group's batch. Halted classes take no step this round and stay
	// whole. Parts are forked from the pre-Receive class — process state
	// and decision record both — before any class steps: a fork made
	// after its origin decided would inherit a decision its own members
	// were never recorded with.
	var parts []*countClass
	if !rt.uniform {
		parts = r.refine(func(s int, c *countClass) int32 {
			if c.halted {
				return 0
			}
			return int32(rt.SharedWith(s))
		})
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

// step runs one class's Receive against its leader's inbox — every
// member's being identical by construction — and polls its decision; it
// reports whether the class decided. A halted class draws no inbox.
func (r *countingRep) step(c *countClass, round int) bool {
	c.origin = nil // the split is over: keep no dead origin reachable
	if c.halted {
		return false
	}
	in := r.e.router.inbox(int(c.leader))
	c.proc.Receive(round, in)
	in.Recycle()
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
// decided this round. The round's verdicts are first laid out per table
// entry, in scratch reused across rounds (O(classes)); then one
// ascending pass over classOf writes the Result arrays in memory order,
// skipping every slot already recorded — a slot keeps its first
// decision (irrevocability), however its class merged since.
func (r *countingRep) recordDecisions(round int) {
	if cap(r.decidedNow) < len(r.table) {
		r.decidedNow = make([]decidedNow, len(r.table), cap(r.table))
	}
	now := r.decidedNow[:len(r.table)]
	for i, t := range r.table {
		now[i] = decidedNow{}
		if t != nil && t.decidedAt == round {
			now[i] = decidedNow{t.decision, true}
		}
	}
	res := r.e.res
	decisions, decidedAt := res.Decisions[:len(r.classOf)], res.DecidedAt[:len(r.classOf)]
	recorded := 0
	for s, ci := range r.classOf {
		if ci < 0 || decidedAt[s] != 0 {
			continue
		}
		if d := now[ci]; d.ok {
			decisions[s], decidedAt[s] = d.v, round
			recorded++
		}
	}
	r.e.undecided -= recorded
}

// decidedNow is one table entry's line in recordDecisions' lookup: the
// value its class decided, when it decided this round.
type decidedNow struct {
	v  hom.Value
	ok bool
}

// mergeClasses re-unifies classes of one identifier group whose states
// re-converged, detected by the protocol's StateFingerprint (classes of
// protocols without StateHasher never merge). A class merges only inside
// its own group, so only the classes of a group holding two or more are
// fingerprinted: a settled round, one class per group, hashes and
// allocates nothing. The survivor is the class with the smaller leader:
// it takes the merged class's size, and the merged class's table entry
// forwards to it, so no slot is written. The merged-in process is
// released.
func (r *countingRep) mergeClasses() {
	if !r.collapse || len(r.classes) < 2 {
		return
	}
	if r.perGroup == nil {
		r.perGroup = make([]int32, r.e.cfg.Params.L+1)
	}
	defer clear(r.perGroup)
	mergeable := false
	for _, c := range r.classes {
		r.perGroup[c.id]++
		mergeable = mergeable || r.perGroup[c.id] > 1
	}
	if !mergeable {
		return
	}
	if r.seen == nil {
		r.seen = make(map[mergeKey]*countClass)
	}
	defer clear(r.seen)
	out := r.classes[:0]
	for _, c := range r.classes {
		h, ok := c.proc.(StateHasher)
		if !ok || r.perGroup[c.id] < 2 {
			out = append(out, c)
			continue
		}
		k := mergeKey{c.id, h.StateFingerprint()}
		prev, dup := r.seen[k]
		if !dup {
			r.seen[k] = c
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

// classStates returns the live classes as Result.Classes entries,
// sorted, equal entries folded: classes that have not merged yet, or
// never can (Concrete), read as one merged class.
func (r *countingRep) classStates() []ClassState {
	out := make([]ClassState, 0, len(r.classes))
	for _, c := range r.classes {
		cs := ClassState{ID: c.id, Size: int(c.size)}
		if h, ok := c.proc.(StateHasher); ok {
			cs.FP = h.StateFingerprint()
		}
		out = append(out, cs)
	}
	slices.SortFunc(out, func(a, b ClassState) int { return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.FP, b.FP)) })
	folded := out[:0]
	for _, cs := range out {
		if k := len(folded) - 1; k >= 0 && folded[k].ID == cs.ID && folded[k].FP == cs.FP {
			folded[k].Size += cs.Size
		} else {
			folded = append(folded, cs)
		}
	}
	return folded
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
}

// ClassCount reports the live equivalence-class count (tests and
// diagnostics; under Concrete, the number of correct slots).
func (r *countingRep) ClassCount() int { return len(r.classes) }
