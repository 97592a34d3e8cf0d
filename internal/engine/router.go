package engine

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
)

// BatchDropper is an optional Adversary extension consumed by the batched
// delivery path: instead of one Drop call per (from, to) pair, the engine
// asks once per recipient batch. Implementations must fill drop[i] with
// the verdict for the message from slot fromSlots[i] to slot toSlot this
// round, leaving entries they do not drop untouched (the engine zeroes
// the mask beforehand).
//
// The same purity contract as Adversary.Drop applies: the mask must be a
// pure function of (round, fromSlots[i], toSlot), never of call order or
// batch composition, so that the batch verdicts equal what per-message
// Drop calls would answer. The engine enforces the model rules itself —
// the mask is only consulted before GST in the partially synchronous
// model, and verdicts on self-deliveries (fromSlots[i] == toSlot) are
// ignored.
//
// Adversaries that do not implement BatchDropper are adapted by a shim
// that replays the batch through their per-message Drop, so every
// existing adversary works unchanged under batched delivery.
type BatchDropper interface {
	DropBatch(round, toSlot int, fromSlots []int32, drop []bool)
}

// dropShim adapts a per-message Adversary.Drop to the batch interface.
type dropShim struct{ adv Adversary }

func (s dropShim) DropBatch(round, toSlot int, fromSlots []int32, drop []bool) {
	for i, from := range fromSlots {
		if int(from) != toSlot {
			drop[i] = s.adv.Drop(round, int(from), toSlot)
		}
	}
}

// Router is the delivery machinery shared by every state
// representation: it stamps each send exactly once into a per-round
// structure-of-arrays arena (interning its canonical key, in
// deterministic send order), routes deliveries as int32 arena indices,
// enforces visibility, pre-GST drops and the restricted-Byzantine
// budget, accumulates the execution statistics, and classifies
// recipients into identifier-group equivalence classes so byte-identical
// batches are filled into one shared inbox core instead of one per
// process.
//
// Every stamped send carries a multiplicity, the arena's copies column,
// which the statistics, the send budget and the fills count. In a
// weighted round — no link condition, visibility mask or traffic record
// can tell two senders of one group apart — a counting class sends once
// for all its members; in every other round each slot sends for itself.
//
// It exists so state representations cannot diverge: they share routing
// code instead of mirroring it. All its buffers are engine round scratch,
// reused across rounds; an inbox and the shared core behind it are valid
// until the next beginRound, which returns the cores to their pool.
//
// What every round needs — the arena, the stamp columns, the
// identifier-group rows, the statistics, the link-condition windows —
// lives on the Router itself, sized by the round's sends and by l; the
// arena and the stamp columns in a stampStore reused across executions.
// Everything indexed by slot lives in the slotStage, which a round uses
// from the first pair routed on its own, or when a mask or a record
// needs every recipient. A flat round uses neither: flush counts each
// row once per holder of its identifier, and each group fills one core.
type Router struct {
	n          int
	params     hom.Params
	assignment hom.Assignment
	visibility func(fromSlot, toSlot int) bool
	adv        Adversary
	dropper    BatchDropper // nil iff adv is nil
	gst        int
	record     bool
	stats      *Stats
	isBad      []bool
	intern     *msg.Interner

	// Fault injection (package inject). inj is nil in fault-free
	// executions; every query it answers is a pure function of
	// (round, from, to), which is what keeps the state representations
	// identical under faults.
	inj      *inject.Injector
	replays  []inject.Replay // inj's replay specs, indexed like retained
	retained [][]msg.Payload // per replay spec: bodies captured at SourceRound
	// The injector's per-kind activity windows, asked once per round in
	// beginRound: each link-condition stage below is off for rounds its
	// window does not cover, independently of the others.
	lossRound   bool // a crash, omission or duplication can fire this round
	holdRound   bool // a delay or reorder can hold a message sent this round
	stallRound  bool // some slot's round clock can be stalled from this round on
	replayRound bool // a replay can capture or deliver this round
	trivialMask bool // no visibility mask, drop or loss can change a batch this round
	weighted    bool // a send may stand for several indistinguishable senders this round

	// Eventually-synchronous timing machinery (TimingPolicy granted by
	// the time model): held deliveries cross rounds in the pending
	// queue, and sender timeout retransmissions fire from it with
	// exponential backoff, identically under every state representation.
	timing      bool // timing machinery live (enableTiming)
	esBound     int  // max post-stabilisation delivery delay in rounds
	esTimeout   int  // first retransmit after this many rounds; 0 = off
	esMaxRetry  int  // retransmit attempts cap; 0 = unlimited
	pq          msg.PendingQueue
	timingFault bool // the schedule contains delay/reorder/stall faults
	draining    bool // routing drained (due) entries: skip hold checks

	verify        bool // paranoid mode (Config.Invariants): verifyRound is live
	verifyScratch []int32
	memoStamped   []int32 // paranoid mode: this round's entries stamped from a memo
	issued        []int8  // paranoid mode: inboxes drawn per slot this round
	totalStamped  int     // stamped copies across the execution: the Config.MaxSends gauge

	slots *slotStage // per-slot routing stage; nil until a round first needs one

	// Standing broadcasts (msg.Send.Standing). marks lists the round's in
	// routing order, prevMarks the previous round's, which cursor walks
	// as senders come in ascending slot order. One re-offered in a
	// weighted round right after another weighted round that routed it —
	// same memo, slot and copies — is accounted instead of stamped (spare)
	// and kept in spared: the round's standing entries, which only a
	// delta inbox's union reads.
	prevWeighted     bool
	marks, prevMarks []standingMark
	cursor           int
	holding          int // slots holding a valid identifier; 0 until counted

	// The identifier groups, indexed by identifier-1: this round's
	// broadcast rows (arena indices, pre-mask, in stamp order), who holds
	// each identifier, and — in a flat round — each group's shared core.
	rows      [][]int32
	holders   []groupHolders // see groups
	groupCore []*msg.GroupInbox
	cores     []*msg.GroupInbox // every shared core filled this round, recycled at the next
	flat      bool              // this round's batches are the rows, unmasked: flush touched no slot
	uniform   bool              // every correct member of a group received its group's batch this round

	*stampStore         // the round's stamped entries; pooled across executions
	batch       []int32 // visibility-filtered batch scratch
	cand        []int32 // candidate scratch: a group's row ++ a recipient's tail
	// Link-verdict scratch for maskBatch: a recipient batch's distinct
	// senders (froms, first-occurrence order), the drop mask DropBatch
	// fills over them, and the resolved verdict per sender slot.
	// verdictGen stamps which maskBatch call verdictOf[from] belongs to,
	// so the O(n) tables are never cleared between batches.
	froms      []int32
	dropMask   []bool
	verdictOf  []linkVerdict
	verdictGen []uint32
	gen        uint32
	deliveries []msg.Delivered
	scratch    []int32 // masked-batch scratch for comparisons and bad slots

	// Traffic-record bitmap for batched rounds: bit (si, to) is set when
	// send si was delivered to slot to. recStride is the per-send word
	// count ((n+63)/64); flush reconstructs the send-major Delivered
	// order from it.
	recBits   []uint64
	recStride int

	round   int
	dropsOK bool
	// rowsOpen: this round's broadcasts still go to the identifier-group
	// rows. False from beginRound where a link is genuinely per-pair (an
	// open hold, stall or replay window), and from the first pair routed
	// individually, so whatever lands in a recipient's tail was stamped
	// after everything in its group's row.
	rowsOpen bool
}

// stampStore is what a round stamps into: the arena and its routing
// columns, the standing entries the round spared, the memos of the
// bodies a Byzantine slot forwards, the scratch keys are built in, and
// the buffers the corrupted slots build their sends in. Only its
// capacity outlives a round, and it outlives the execution too:
// newRouter draws it with getStampStore and release returns it, emptied,
// once the execution ends.
type stampStore struct {
	arena        msg.SendArena
	sendFrom     []int32 // arena column: sender slot per entry
	sendKeyLen   []int32 // arena column: body-key length (bandwidth proxy)
	spared       msg.SendArena
	sparedKeyLen []int32 // parallel to spared: body-key length

	// The forwarded bodies of one routeByzantine call: one memo per
	// distinct msg.TargetedSend.Forwards, found through fwdOf.
	fwdMemo []msg.StampMemo
	fwdOf   map[*msg.Send]int32

	kb msg.KeyBuilder // scratch for ScratchKeyer body keys

	// The View.SendBuffer storage of each corrupted slot, by its index in
	// the engine's corrupted list; routeByzantine consumes a round's
	// sends before the next round asks for them again.
	byzBuf [][]msg.TargetedSend
}

var stampPool sync.Pool // of *stampStore; no New, so a miss shows

// spareStore holds one released stamp store beside stampPool, for when
// the pool misses. A garbage collection moves the pool's items to its
// victim cache, where one left in another P's private slot is out of
// reach, so a caller running one execution at a time would grow a store
// from empty after about half its collections. The spare survives
// collections and serves every P; only this one store is kept beyond
// the pool's reach. It is drawn after the pool, so concurrent callers
// still find their own P's store first.
var spareStore atomic.Pointer[stampStore]

// getStampStore returns an empty stamp store: one from stampPool, else
// the spare, else a new one.
func getStampStore() *stampStore {
	if s, ok := stampPool.Get().(*stampStore); ok {
		return s
	}
	if s := spareStore.Swap(nil); s != nil {
		return s
	}
	return new(stampStore)
}

// reset empties the store, dropping every body, key, interner and send
// reference it holds, and keeps its capacity.
func (s *stampStore) reset() {
	s.arena.Reset()
	s.spared.Reset()
	s.sendFrom, s.sendKeyLen, s.sparedKeyLen = s.sendFrom[:0], s.sendKeyLen[:0], s.sparedKeyLen[:0]
	s.clearForwards()
}

// clearForwards forgets the forwarded bodies of the last routeByzantine
// call.
func (s *stampStore) clearForwards() {
	if len(s.fwdMemo) > 0 {
		clear(s.fwdMemo)
		s.fwdMemo = s.fwdMemo[:0]
		clear(s.fwdOf)
	}
}

// forwardMemo returns the memo of the body f names, one per distinct f
// since the last clearForwards; nil for nil.
func (s *stampStore) forwardMemo(f *msg.Send) *msg.StampMemo {
	if f == nil {
		return nil
	}
	i, ok := s.fwdOf[f]
	if !ok {
		if s.fwdOf == nil {
			s.fwdOf = make(map[*msg.Send]int32)
		}
		i = int32(len(s.fwdMemo))
		s.fwdOf[f] = i
		s.fwdMemo = append(s.fwdMemo, msg.StampMemo{})
	}
	return &s.fwdMemo[i]
}

// sendBuffers returns the first k corrupted slots' send buffers.
func (s *stampStore) sendBuffers(k int) [][]msg.TargetedSend {
	for len(s.byzBuf) < k {
		s.byzBuf = append(s.byzBuf, nil)
	}
	return s.byzBuf[:k]
}

// release resets the stamp store, dropping every body the send buffers
// still hold, and returns it to the spare or stampPool, once, when the
// execution is over; the Router must not stamp again.
func (r *Router) release() {
	r.stampStore.reset()
	for _, b := range r.byzBuf {
		clear(b[:cap(b)])
	}
	if !spareStore.CompareAndSwap(nil, r.stampStore) {
		stampPool.Put(r.stampStore)
	}
	r.stampStore = nil
}

// standingMark is one standing broadcast as routed: its sender's memo,
// the slot it was routed from and the copies it stood for.
type standingMark struct {
	memo         *msg.StampMemo
	from, copies int32
}

// groupHolders is what a flat round needs of one identifier group: how
// many slots hold the identifier (each receives the group's row), and
// how many of them are correct and the lowest such — the reception
// class they all share.
type groupHolders struct{ slots, correct, first int32 }

// groups returns who holds each identifier, counted from the assignment
// on first use unless the representation has set them (the counting
// representation's classes already count them, which spares an n-sized
// pass).
func (r *Router) groups() []groupHolders {
	if r.holders != nil {
		return r.holders
	}
	r.holders = make([]groupHolders, r.params.L)
	for slot, id := range r.assignment {
		if !id.IsValid(r.params.L) {
			continue
		}
		g := &r.holders[id-1]
		g.slots++
		if !r.isBad[slot] {
			if g.correct == 0 {
				g.first = int32(slot)
			}
			g.correct++
		}
	}
	return r.holders
}

// slotStage is the Router's per-slot half: the recipient batches, the
// reception partition and the n-sized memo tables. Every slice is
// indexed by slot unless noted.
//
// A recipient's candidate batch — what was routed to it, before any mask
// — is its identifier group's row followed by its own tail (candidate).
// In the model a correct process can only send to all or to one
// identifier, so a broadcast is one row entry per addressed group, never
// n appends; a tail holds only what can differ between the members of a
// group: Byzantine-targeted, replayed and drained entries, plus every
// pair of a round whose links are per-pair (see Router.rowsOpen).
type slotStage struct {
	used     bool      // this round routes or flushes through the stage: beginRound sweeps it
	pend     [][]int32 // the recipient's tail: individually routed arena indices, pre-mask
	rawIdx   [][]int32 // delivered arena indices
	perRecip []int     // restricted-Byzantine budget counters
	dirty    []bool    // saw targeted routing (Byzantine, replayed, held, drained) this round

	// The reception partition: per identifier, the correct slots carrying
	// it (fixed for the execution), split each round into classes of
	// equal delivered batches. reps and repStats are scratch for the one
	// group being partitioned.
	groups    [][]int32
	shareRep  []int32           // class representative slot, -1 = alone (own fill)
	classSize []int32           // per representative slot: class member count
	classGI   []*msg.GroupInbox // per representative slot: shared core, built lazily
	reps      []int32           // the current group's representatives, ascending
	repStats  []batchStats      // parallel to reps: the representative batch's stat deltas

	// Hold memo for the batched path (timing faults only): the due round
	// of a (round, from, to) link is the same for every message on it, so
	// holdDue resolves it once per recipient for the current sender row.
	// dueKey[to] names the (round, from) row dueAt[to] was resolved for;
	// a new row or a new round invalidates by key mismatch, never by
	// clearing.
	dueKey []uint64
	dueAt  []int32 // 0 = not held
}

// stage returns the per-slot routing stage, building it on first use,
// and marks it used this round. A stage built mid-round is clean for
// that round; beginRound sweeps it after every round that used it.
func (r *Router) stage() *slotStage {
	if r.slots != nil {
		r.slots.used = true
		return r.slots
	}
	n := r.n
	st := &slotStage{
		used:      true,
		pend:      make([][]int32, n),
		rawIdx:    make([][]int32, n),
		dirty:     make([]bool, n),
		groups:    make([][]int32, r.params.L),
		shareRep:  make([]int32, n),
		classSize: make([]int32, n),
		classGI:   make([]*msg.GroupInbox, n),
	}
	for slot, id := range r.assignment {
		st.shareRep[slot] = -1
		if !r.isBad[slot] && id.IsValid(r.params.L) {
			st.groups[id-1] = append(st.groups[id-1], int32(slot))
		}
	}
	if r.params.RestrictedByzantine {
		st.perRecip = make([]int, n)
	}
	if r.timingFault {
		st.dueKey = make([]uint64, n)
		st.dueAt = make([]int32, n)
	}
	r.slots = st
	return st
}

// newRouter builds the round router for one execution. isBad, stats and
// intern are the engine's (the router writes stats and interns into the
// engine's table); record reports whether deliveries must be recorded
// for traffic or an observer; inj is the compiled fault schedule (nil
// for a fault-free execution) — the engine compiles it so validation
// errors surface from Run, and shares it with the router so process
// faults (crash windows) and link faults (omission, duplication,
// replay) come from one source.
func newRouter(cfg *Config, isBad []bool, stats *Stats, intern *msg.Interner, record bool, inj *inject.Injector) *Router {
	n, l := cfg.Params.N, cfg.Params.L
	r := &Router{
		n:          n,
		params:     cfg.Params,
		assignment: cfg.Assignment,
		visibility: cfg.Visibility,
		adv:        cfg.Adversary,
		gst:        cfg.GST,
		record:     record,
		stats:      stats,
		isBad:      isBad,
		intern:     intern,
		verify:     cfg.Invariants,
		recStride:  (n + 63) / 64,
		rows:       make([][]int32, l),
		groupCore:  make([]*msg.GroupInbox, l),
		stampStore: getStampStore(),
	}
	if r.verify {
		r.issued = make([]int8, n)
	}
	r.inj = inj
	if inj != nil {
		sched := inj.Schedule()
		r.replays = sched.Replays
		r.retained = make([][]msg.Payload, len(r.replays))
	}
	if r.adv != nil {
		if bd, ok := r.adv.(BatchDropper); ok {
			r.dropper = bd
		} else {
			r.dropper = dropShim{adv: r.adv}
		}
	}
	return r
}

// enableTiming arms the eventually-synchronous timing machinery with
// the time model's policy. Called once, before round 1. With no timing
// faults in the schedule the hold checks stay off the routing path
// entirely, which is what makes a zero-knob eventually-synchronous
// execution byte-identical to a lockstep one.
func (r *Router) enableTiming(p TimingPolicy) {
	r.timing = true
	r.esBound = p.Bound
	r.esTimeout = p.Timeout
	r.esMaxRetry = p.MaxAttempts
	r.timingFault = r.inj.HasTiming()
	r.pq.Reset()
}

// slotStalled reports whether a stall fault freezes the slot's round
// clock in the given round. Stalls are clamped to rounds before GST —
// the model's bounded-skew-after-stabilisation guarantee — and never
// apply to corrupted slots (the adversary is not a clock).
func (r *Router) slotStalled(slot, round int) bool {
	return r.timing && round < r.gst && !r.isBad[slot] && r.inj.Stalled(slot, round)
}

// beginRound opens a round: it resolves the round's link-condition
// windows — and with them whether the round is weighted — and resets the
// round scratch. Arena indices, inboxes and shared cores from the
// previous round become invalid.
func (r *Router) beginRound(round int) {
	r.round = round
	r.dropsOK = r.adv != nil &&
		r.params.Synchrony == hom.PartiallySynchronous && round < r.gst
	r.lossRound = r.inj.Live(inject.KindLoss, round)
	r.holdRound = r.timingFault && r.inj.Live(inject.KindHold, round)
	r.stallRound = r.timingFault && round < r.gst && r.inj.Live(inject.KindStall, round)
	r.replayRound = r.inj.Live(inject.KindReplay, round)
	r.rowsOpen = !r.holdRound && !r.stallRound && !r.replayRound
	r.trivialMask = r.visibility == nil && !r.dropsOK && !r.lossRound
	r.prevWeighted = r.weighted
	r.weighted = r.rowsOpen && r.trivialMask && !r.record
	r.marks, r.prevMarks, r.cursor = r.prevMarks[:0], r.marks, 0
	r.releaseCores()
	r.stampStore.reset()
	r.deliveries = r.deliveries[:0]
	r.memoStamped = r.memoStamped[:0]
	clear(r.issued)
	for g := range r.rows {
		r.rows[g] = r.rows[g][:0]
	}
	if st := r.slots; st != nil && st.used {
		st.used = false
		for to := 0; to < r.n; to++ {
			st.pend[to] = st.pend[to][:0]
			st.rawIdx[to] = st.rawIdx[to][:0]
			st.shareRep[to] = -1
			st.classSize[to] = 0
			st.classGI[to] = nil
			st.dirty[to] = false
		}
	}
}

// releaseCores returns the shared cores the round filled to their pool
// (their views were recycled with the round): at the next beginRound,
// and once the execution ends.
func (r *Router) releaseCores() {
	for _, c := range r.cores {
		c.Recycle()
	}
	clear(r.cores)
	r.cores = r.cores[:0]
	clear(r.groupCore)
}

// stamp appends one send to the arena and records its routing metadata
// columns. This is the only place a round's keys are interned — message
// keys "id=<id>|<body key>" only, so every KeyID names a message — so
// intern order is send order. Stamp once per execution: a send offered
// with its sender's memo builds and hashes its key the first time and
// costs the column appends afterwards. Otherwise a msg.ScratchKeyer
// builds its key in scratch; the rest fall back to Key(). The entry
// stands for copies sends, each of which counts against MaxSends.
func (r *Router) stamp(from int, copies int32, body msg.Payload, memo *msg.StampMemo) int32 {
	id := r.assignment[from]
	kid, keyLen, known := memo.Lookup(r.intern, id)
	if !known {
		if sk, ok := body.(msg.ScratchKeyer); ok {
			sk.BuildKey(&r.kb)
			keyLen = len(r.kb.Bytes())
			kid = r.kb.InternMessage(r.intern, id)
		} else {
			bodyKey := body.Key()
			keyLen = len(bodyKey)
			kid, _ = r.intern.InternMessageKey(int64(id), bodyKey)
		}
		memo.Fill(r.intern, id, kid, keyLen)
	} else if r.verify {
		r.memoStamped = append(r.memoStamped, int32(r.arena.Len()))
	}
	si := r.arena.AppendStamped(r.intern, id, body, kid, copies)
	r.sendFrom = append(r.sendFrom, int32(from))
	r.sendKeyLen = append(r.sendKeyLen, int32(keyLen))
	r.totalStamped += int(copies)
	return si
}

// route records one (send, recipient) pair in the recipient's tail for
// flush. When a replay fault needs this round's (from, to) traffic, the
// body is retained at routing time — before any mask, like a network
// capturing a message in flight. Under the eventually-synchronous model
// a timing fault may intercept the pair here and park it in the pending
// queue until its due round. Callers hold the slot stage (stage())
// before routing the first pair. A pair routed here closes the round's
// rows: later broadcasts follow it into the tails.
func (r *Router) route(from, to int, si int32) {
	r.rowsOpen = false
	if r.replayRound && r.inj.NeedRetain(from, r.round) {
		for i := range r.replays {
			rp := &r.replays[i]
			if rp.FromSlot == from && rp.SourceRound == r.round && rp.ToSlot == to {
				r.retained[i] = append(r.retained[i], r.arena.Body(si))
			}
		}
	}
	if (r.holdRound || r.stallRound) && !r.draining {
		if due, held := r.holdDue(from, to); held {
			r.hold(from, to, si, due)
			return
		}
	}
	r.slots.pend[to] = append(r.slots.pend[to], si)
}

// holdDue decides whether a timing fault holds a (from, to) delivery
// routed this round, and until which round. The verdict is a pure
// function of (round, from, to), so it is resolved once per link per
// round — the memo is keyed by the sender row, and the ~n messages a
// protocol puts on one link in one round share one linkDue.
func (r *Router) holdDue(from, to int) (int, bool) {
	st := r.slots
	key := uint64(r.round)<<32 | uint64(uint32(from))
	if st.dueKey[to] != key {
		st.dueKey[to] = key
		st.dueAt[to] = int32(r.linkDue(from, to))
	}
	due := int(st.dueAt[to])
	return due, due > 0
}

// linkDue resolves the round a delivery on the (from, to) link sent
// this round is due, or 0 when no timing fault holds it. The due round
// composes the link's delay faults with the recipient's stall windows:
//
//   - a delay of By rounds surfaces at round+By, clamped so every held
//     message lands by max(GST, round) + Bound (By == 0 — "held until
//     stabilisation" — goes straight to that clamp). After GST the
//     clamp is the model's bounded-delay guarantee; with Bound 0 the
//     stabilised network is fully synchronous and the faults are inert.
//   - a stalled recipient cannot receive: the due round is pushed past
//     its stall windows (bounded — stalls end by GST).
//
// Pure in (round, from, to) given the compiled schedule, so routing and
// the retransmit path agree. Self-deliveries are exempt (the injector's
// link queries already exclude them, and a stalled slot sends nothing,
// so from == to never reaches the stall push for correct slots).
func (r *Router) linkDue(from, to int) int {
	round := r.round
	due := round
	if r.holdRound {
		if by, held := r.inj.DelayBy(round, from, to); held {
			stab := r.gst
			if round > stab {
				stab = round
			}
			latest := stab + r.esBound
			if by == 0 || round+by > latest {
				due = latest
			} else {
				due = round + by
			}
		}
	}
	for r.slotStalled(to, due) {
		due++
	}
	if due <= round {
		return 0
	}
	return due
}

// hold parks one (send, recipient) pair in the pending queue until its
// due round, capturing the body (the arena resets every round) and
// arming the sender's retransmit timer. The recipient is marked dirty
// like a Byzantine-targeted one: its batch diverged from its group's.
func (r *Router) hold(from, to int, si int32, due int) {
	var retry int32
	if r.esTimeout > 0 {
		retry = int32(r.round + r.esTimeout)
	}
	r.pq.Hold(msg.PendingEntry{
		From:      int32(from),
		To:        int32(to),
		Body:      r.arena.Body(si),
		SentRound: int32(r.round),
		Due:       int32(due),
		NextRetry: retry,
	})
	r.slots.dirty[to] = true
	r.stats.TimingHolds++
}

// pumpPending advances the timing machinery at the end of a round's
// routing (from flush, after replays, before the batched flush): fire
// the retransmit timers due this round, then drain and deliver every
// entry whose due round arrived. Drained bodies are stamped after the
// round's fresh sends and replays, so held copies always sort behind
// current traffic, since stamping order is delivery-record order.
func (r *Router) pumpPending() {
	st := r.stage()
	round := int32(r.round)
	if r.esTimeout > 0 {
		for i := 0; i < r.pq.Len(); i++ {
			e := r.pq.At(i)
			if e.NextRetry != round || e.Due <= round {
				continue
			}
			// The sender has waited Timeout·2^Attempt rounds without
			// delivery: retransmit. The fresh copy takes the link's
			// conditions at the retry round — if the delay window has
			// closed it arrives now — and the earliest copy wins
			// (at-most-once delivery: the pending entry stays the one
			// logical message).
			e.Attempt++
			r.stats.Retransmits++
			r.totalStamped++ // a real transmission, against MaxSends
			if r.esMaxRetry > 0 && int(e.Attempt) >= r.esMaxRetry {
				e.NextRetry = 0
			} else {
				shift := uint(e.Attempt)
				if shift > 20 {
					shift = 20 // clamp the backoff gap, not the budget
				}
				e.NextRetry = round + int32(r.esTimeout)<<shift
			}
			due, held := r.holdDue(int(e.From), int(e.To))
			if !held {
				due = r.round
			}
			if int32(due) < e.Due {
				e.Due = int32(due)
			}
		}
	}
	r.draining = true
	for i := 0; i < r.pq.Len(); i++ {
		e := r.pq.At(i)
		if e.Due != round {
			continue
		}
		si := r.stamp(int(e.From), 1, e.Body, nil)
		st.dirty[e.To] = true
		r.route(int(e.From), int(e.To), si)
	}
	r.draining = false
	r.pq.Drop(round)
}

// routeCorrect stamps and routes one correct sender's sends for the
// round, each standing for copies indistinguishable senders (more than
// one only in a weighted round). While the round's rows are open a send
// costs one append per addressed identifier group — l for a broadcast,
// one for ToIdentifier (none for an identifier nobody holds) — whatever
// n is; otherwise every (send, recipient) pair is routed on its own.
func (r *Router) routeCorrect(from int, copies int32, sends []msg.Send) {
	for _, s := range sends {
		if s.Standing && s.Kind == msg.ToAll && s.Memo != nil && r.spare(from, copies, s) {
			continue
		}
		si := r.stamp(from, copies, s.Body, s.Memo)
		switch s.Kind {
		case msg.ToAll:
			if r.rowsOpen {
				for g := range r.rows {
					r.rows[g] = append(r.rows[g], si)
				}
				continue
			}
			r.stage()
			for to := 0; to < r.n; to++ {
				r.route(from, to, si)
			}
		case msg.ToIdentifier:
			if r.rowsOpen {
				if s.To.IsValid(r.params.L) {
					r.rows[s.To-1] = append(r.rows[s.To-1], si)
				}
				continue
			}
			r.stage()
			for to := 0; to < r.n; to++ {
				if r.assignment[to] == s.To {
					r.route(from, to, si)
				}
			}
		}
	}
}

// spare marks a standing broadcast as routed this round and, when the
// previous round was weighted too and routed it — same memo, slot and
// copies — accounts it instead of stamping it: every slot received it
// then and nothing can mask it now, so it is counted exactly as flushRows
// would count its row entries, once per holder of each identifier, and
// kept in spared for the delta inboxes' unions. A spared send is a memo
// hit, so the intern table never misses it. It reports whether it spared
// the send.
func (r *Router) spare(from int, copies int32, s msg.Send) bool {
	m := standingMark{memo: s.Memo, from: int32(from), copies: copies}
	r.marks = append(r.marks, m)
	if !r.weighted || !r.prevWeighted {
		return false
	}
	prev := r.prevMarks
	for r.cursor < len(prev) && prev[r.cursor].from < m.from {
		r.cursor++
	}
	if r.cursor == len(prev) || prev[r.cursor] != m {
		return false
	}
	r.cursor++
	id := r.assignment[from]
	kid, keyLen, ok := s.Memo.Lookup(r.intern, id)
	if !ok {
		return false
	}
	if r.holding == 0 {
		for _, g := range r.groups() {
			r.holding += int(g.slots)
		}
	}
	c := int(copies) * r.holding
	r.stats.MessagesSent += c
	r.stats.MessagesDelivered += c
	r.stats.PayloadBytes += c * keyLen
	r.totalStamped += int(copies)
	r.spared.AppendStamped(r.intern, id, s.Body, kid, copies)
	r.sparedKeyLen = append(r.sparedKeyLen, int32(keyLen))
	return true
}

// candidate returns everything routed to the slot this round, before any
// mask, in ascending arena index — the order the model delivers in: its
// identifier group's row, then its own tail (route closes the rows, so a
// tail entry is stamped after every row entry). With either part empty
// it is the other, uncopied; otherwise it is assembled in scratch that
// the next call overwrites.
func (r *Router) candidate(to int) []int32 {
	row, tail := r.rows[r.assignment[to]-1], r.slots.pend[to]
	switch {
	case len(tail) == 0:
		return row
	case len(row) == 0:
		return tail
	}
	r.cand = append(append(r.cand[:0], row...), tail...)
	return r.cand
}

// routeByzantine stamps and routes one corrupted slot's targeted sends,
// enforcing the restricted-Byzantine one-message-per-recipient budget.
// Sends naming the same Forwards stamp from one memo, so a body copied
// to n recipients is keyed once. Targeted routing is the one way members
// of an identifier group can be handed diverging batches, so each
// touched recipient is marked dirty for the reception classifier.
func (r *Router) routeByzantine(from int, sends []msg.TargetedSend) {
	if len(sends) == 0 {
		return
	}
	st := r.stage()
	clear(st.perRecip)
	r.clearForwards()
	for _, ts := range sends {
		if ts.ToSlot < 0 || ts.ToSlot >= r.n || ts.Body == nil {
			continue
		}
		if r.params.RestrictedByzantine {
			if st.perRecip[ts.ToSlot] >= 1 {
				r.stats.RestrictedViolations++
				continue
			}
			st.perRecip[ts.ToSlot]++
		}
		si := r.stamp(from, 1, ts.Body, r.forwardMemo(ts.Forwards))
		st.dirty[ts.ToSlot] = true
		r.route(from, ts.ToSlot, si)
	}
}

// sameBatch reports whether two delivered batches fill the same inbox:
// entry for entry, either the same arena index or — when nothing
// records per-send traffic, which is keyed by the true sender slot —
// two entries carrying the same KeyID (equal canonical (identifier,
// payload) keys, hence equal payload values and equal key lengths: a
// Byzantine slot sending one message separately to each member). It
// compares tail-first: what diverges two members of a group (targeted,
// replayed and drained entries) is stamped after the round's broadcasts.
func (r *Router) sameBatch(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] && (r.record || r.arena.KID(a[i]) != r.arena.KID(b[i])) {
			return false
		}
	}
	return true
}

// batchStats accumulates one recipient batch's statistic deltas, so a
// shared class can apply its representative's deltas once per member
// without recomputing the batch.
type batchStats struct {
	sent, delivered, dropped, omitted, payload int
}

// applyStats folds one batch's deltas into the execution statistics.
func (r *Router) applyStats(bs *batchStats) {
	r.stats.MessagesSent += bs.sent
	r.stats.MessagesDelivered += bs.delivered
	r.stats.MessagesDropped += bs.dropped
	r.stats.FaultOmissions += bs.omitted
	r.stats.PayloadBytes += bs.payload
}

// linkVerdict is what the link conditions do to every message on one
// (round, from, to) link.
type linkVerdict uint8

const (
	linkDeliver linkVerdict = iota
	linkDrop                // pre-GST adversarial drop
	linkOmit                // lost to a crash or omission fault
	linkDup                 // delivered twice by a duplication fault
)

// maskBatch applies the visibility mask and the link conditions over one
// recipient's candidate batch, appending survivors to dst and
// accumulating the recipient's stat deltas into bs, each entry counted
// copies times (a link condition never meets an entry of more than one:
// rounds with one are weighted, and no mask applies in them). It touches only
// shared mask scratch, never router state, so the classifier can probe a
// class member's outcome without committing it — and since every link
// condition is a pure function of (round, from, to), probing a recipient
// twice (the group classifier and the invariant checker both do) yields
// the same batch.
func (r *Router) maskBatch(to int, cand, dst []int32, bs *batchStats) []int32 {
	// Visibility mask (topology restrictions are rare; the common case
	// keeps the original batch untouched). What it hides is sent, never
	// delivered; the survivors count as sent below.
	vis := cand
	if r.visibility != nil {
		r.batch = r.batch[:0]
		for _, si := range cand {
			if r.visibility(int(r.sendFrom[si]), to) {
				r.batch = append(r.batch, si)
			} else {
				bs.sent += int(r.arena.Copies(si))
			}
		}
		vis = r.batch
	}
	if len(vis) == 0 {
		return dst
	}

	if !r.dropsOK && !r.lossRound {
		// No link condition can apply this round.
		for _, si := range vis {
			c := int(r.arena.Copies(si))
			bs.sent += c
			bs.delivered += c
			bs.payload += c * int(r.sendKeyLen[si])
		}
		return append(dst, vis...)
	}

	r.resolveLinks(to, vis)
	for _, si := range vis {
		c := int(r.arena.Copies(si))
		bs.sent += c
		switch r.verdictOf[r.sendFrom[si]] {
		case linkDrop:
			bs.dropped += c
		case linkOmit:
			bs.omitted += c
		case linkDup:
			dst = append(dst, si, si)
			bs.delivered += 2 * c
			bs.payload += 2 * c * int(r.sendKeyLen[si])
		default:
			dst = append(dst, si)
			bs.delivered += c
			bs.payload += c * int(r.sendKeyLen[si])
		}
	}
	return dst
}

// resolveLinks resolves this round's link conditions for every distinct
// sender of one recipient's batch into verdictOf, once per link however
// many messages the link carries: one DropBatch call over the
// deduplicated sender list (the BatchDropper purity contract — a verdict
// never depends on batch composition — is what licenses handing it each
// sender once; self-deliveries are exempt regardless of the mask), then
// one Suppress/Dup query per sender the adversary did not drop, in the
// model's order: drop, then omission, then duplication.
func (r *Router) resolveLinks(to int, vis []int32) {
	if r.verdictOf == nil {
		r.verdictOf = make([]linkVerdict, r.n)
		r.verdictGen = make([]uint32, r.n)
	}
	r.gen++
	if r.gen == 0 { // wrapped: no stale stamp may match a live generation
		clear(r.verdictGen)
		r.gen = 1
	}
	r.froms = r.froms[:0]
	for _, si := range vis {
		if from := r.sendFrom[si]; r.verdictGen[from] != r.gen {
			r.verdictGen[from] = r.gen
			r.verdictOf[from] = linkDeliver
			r.froms = append(r.froms, from)
		}
	}
	if r.dropsOK {
		r.dropMask = slices.Grow(r.dropMask[:0], len(r.froms))[:len(r.froms)]
		clear(r.dropMask)
		r.dropper.DropBatch(r.round, to, r.froms, r.dropMask)
		for i, from := range r.froms {
			if r.dropMask[i] && int(from) != to {
				r.verdictOf[from] = linkDrop
			}
		}
	}
	if r.lossRound {
		for _, from := range r.froms {
			if r.verdictOf[from] == linkDrop {
				continue
			}
			if r.inj.Suppress(r.round, int(from), to) {
				r.verdictOf[from] = linkOmit
			} else if r.inj.Dup(r.round, int(from), to) {
				r.verdictOf[from] = linkDup
			}
		}
	}
}

// flushOwn delivers one recipient's batch through the per-recipient
// path: mask, copy into the delivery index (bad recipients only count),
// commit statistics and record bits.
func (r *Router) flushOwn(to int) {
	st := r.slots
	cand := r.candidate(to)
	if len(cand) == 0 {
		return
	}
	var bs batchStats
	if r.isBad[to] {
		r.scratch = r.maskBatch(to, cand, r.scratch[:0], &bs)
		r.markRecord(r.scratch, to)
	} else {
		st.rawIdx[to] = r.maskBatch(to, cand, st.rawIdx[to], &bs)
		r.markRecord(st.rawIdx[to], to)
	}
	r.applyStats(&bs)
}

// flush completes the round's routing. A round that routed nothing per
// slot, with no mask to apply and nothing to record, is flat: every
// slot's batch is its group's row (flushRows). Otherwise it delivers one
// batch per recipient (visibility mask, one drop-mask application per
// batch, survivors copied in a single append, statistics per batch) and
// partitions the correct members of each identifier group while doing
// so: every distinct delivered batch in the group becomes a class
// representative, and every member joins the class whose batch equals
// its own. A group's members share its row, so when no mask can apply
// (post-GST, no visibility restriction, no loss window — a round inside
// the loss window never qualifies: the injector's omission and
// duplication verdicts are per recipient) they are matched by their
// tails alone, only a representative ever materialises row ++ tail, and
// members no targeted routing touched join their class with no mask
// probe, no index copy and no comparison — zero BatchDropper probes for
// the whole group; otherwise each member's own masked candidate is
// matched against the group's representatives.
func (r *Router) flush() {
	if r.replayRound {
		r.injectReplays()
	}
	if r.timing && r.pq.Len() > 0 {
		r.pumpPending()
	}
	r.flat = (r.slots == nil || !r.slots.used) && r.trivialMask && !r.record
	r.uniform = r.trivialMask
	if r.flat {
		r.flushRows()
		return
	}
	st := r.stage()
	r.resetRecord()

	for _, members := range st.groups {
		if len(members) < 2 {
			for _, m := range members {
				r.uniform = r.uniform && !st.dirty[m]
				r.flushOwn(int(m))
			}
			continue
		}
		st.reps, st.repStats = st.reps[:0], st.repStats[:0]
		clean := -1 // the untouched members' class (index into reps)
		for _, m32 := range members {
			m := int(m32)
			untouched := r.trivialMask && !st.dirty[m]
			r.uniform = r.uniform && untouched
			var ms batchStats
			// With no mask a member is its tail: the row is the group's.
			got, of := st.pend[m], st.pend
			if !r.trivialMask {
				// Masks are per-recipient: the member's own masked
				// outcome is what is matched.
				r.scratch = r.maskBatch(m, r.candidate(m), r.scratch[:0], &ms)
				got, of = r.scratch, st.rawIdx
			}
			ci := clean
			if !untouched || ci < 0 {
				ci = r.findClass(got, of)
			}
			if ci < 0 {
				ci = len(st.reps)
				if r.trivialMask {
					st.rawIdx[m] = r.maskBatch(m, r.candidate(m), st.rawIdx[m], &ms)
				} else {
					st.rawIdx[m] = append(st.rawIdx[m], got...)
				}
				st.reps, st.repStats = append(st.reps, m32), append(st.repStats, ms)
			} else if r.trivialMask {
				// Equal candidates, no masks: the representative's
				// delivered batch and statistics are the member's.
				ms = st.repStats[ci]
			}
			if untouched {
				clean = ci
			}
			rep := st.reps[ci]
			st.shareRep[m] = rep
			st.classSize[rep]++
			r.applyStats(&ms)
			r.markRecord(st.rawIdx[rep], m)
		}
		st.closeGroup()
	}
	// Bad recipients belong to no reception class (they get no inbox)
	// but their batches still count toward the statistics.
	for to := 0; to < r.n; to++ {
		if r.isBad[to] {
			r.flushOwn(to)
		}
	}
	r.buildRecord()
}

// flushRows accounts a flat round: every slot holding an identifier —
// bad slots too, whose batches count though they get no inbox — receives
// its group's row unmasked, so each row entry counts its copies once per
// holder.
func (r *Router) flushRows() {
	groups := r.groups()
	for g, row := range r.rows {
		holders := int(groups[g].slots)
		var bs batchStats
		for _, si := range row {
			c := holders * int(r.arena.Copies(si))
			bs.sent += c
			bs.delivered += c
			bs.payload += c * int(r.sendKeyLen[si])
		}
		r.applyStats(&bs)
	}
}

// findClass returns the index in the current group's representatives of
// the class whose batch in of — the delivered batches, or the tails when
// the group is matched by tail — equals got, or -1.
func (r *Router) findClass(got []int32, of [][]int32) int {
	for i, rep := range r.slots.reps {
		if r.sameBatch(of[rep], got) {
			return i
		}
	}
	return -1
}

// closeGroup ends one group's partition: a class of one shares nothing,
// so its representative reports -1 and fills its own inbox.
func (st *slotStage) closeGroup() {
	for _, rep := range st.reps {
		if st.classSize[rep] == 1 {
			st.shareRep[rep], st.classSize[rep] = -1, 0
		}
	}
}

// SharedWith reports the representative slot of the reception class the
// slot belongs to this round — the lowest correct slot of its identifier
// group whose delivered batch equals its own, whose shared core the slot
// reads — or -1 when no other member received the same batch (and for
// corrupted slots). Two correct slots of one group therefore received
// the same inbox exactly when they report the same class >= 0: it is the
// partition flush filled inboxes by. In a flat round each group is one
// class. The benchmark's trace samples it.
func (r *Router) SharedWith(to int) int {
	if !r.flat {
		return int(r.slots.shareRep[to])
	}
	if g := r.groups()[r.assignment[to]-1]; !r.isBad[to] && g.correct > 1 {
		return int(g.first)
	}
	return -1
}

// injectReplays stamps the retained bodies of every replay fault firing
// this round and routes them to their target — after the round's real
// sends, so replayed copies always sort behind fresh traffic (they are
// stamped last, and buildRecord emits in stamp order). The target is
// marked dirty like a Byzantine-targeted recipient so the reception
// classifier never assumes its batch matches its group's.
func (r *Router) injectReplays() {
	for _, i := range r.inj.ReplaysInto(r.round) {
		rp := &r.replays[i]
		for _, body := range r.retained[i] {
			si := r.stamp(rp.FromSlot, 1, body, nil)
			r.stage().dirty[rp.ToSlot] = true
			r.route(rp.FromSlot, rp.ToSlot, si)
		}
	}
}

// resetRecord sizes and zeroes the delivery bitmap for the round's
// stamped sends (no-op unless recording).
func (r *Router) resetRecord() {
	if !r.record {
		return
	}
	words := r.arena.Len() * r.recStride
	if cap(r.recBits) < words {
		r.recBits = make([]uint64, words)
		return
	}
	r.recBits = r.recBits[:words]
	clear(r.recBits)
}

// markRecord sets the bitmap bits for one recipient's delivered batch
// (no-op unless recording).
func (r *Router) markRecord(delivered []int32, to int) {
	if !r.record {
		return
	}
	w, b := to>>6, uint(to&63)
	for _, si := range delivered {
		r.recBits[int(si)*r.recStride+w] |= 1 << b
	}
}

// buildRecord reconstructs the recorded deliveries from the bitmap in
// the model's send-major order: ascending send (stamp) index, then
// ascending recipient slot.
func (r *Router) buildRecord() {
	if !r.record {
		return
	}
	for si := 0; si < r.arena.Len(); si++ {
		base := si * r.recStride
		var m msg.Delivered
		haveMsg := false
		for w := 0; w < r.recStride; w++ {
			word := r.recBits[base+w]
			for word != 0 {
				to := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if !haveMsg {
					m = msg.Delivered{
						Round: r.round, FromSlot: int(r.sendFrom[si]), Msg: r.arena.Message(int32(si)),
					}
					haveMsg = true
				}
				m.ToSlot = to
				r.deliveries = append(r.deliveries, m)
				// Duplicated deliveries set one bitmap bit but appear
				// twice in the record; Dup is pure, so asking again here
				// reproduces the doubling.
				if r.lossRound && r.inj.Dup(r.round, m.FromSlot, to) {
					r.deliveries = append(r.deliveries, m)
				}
			}
		}
	}
}

// inbox builds the inbox for one correct recipient slot: a read-only
// view over its reception class's shared core — in a flat round, its
// group's — or, when the slot shares with no one, its own pooled SoA
// inbox. A representation draws at most one per slot and round — one
// per stepping class stands for the class — and recycles each before
// the next beginRound; the cores stay the Router's.
//
// In a round that spared standing sends every inbox is a delta inbox over
// a core of the round's stamped batch — its own, for a slot sharing with
// no one — whose union with the spared entries is filled on demand.
func (r *Router) inbox(to int) *msg.Inbox {
	if r.verify {
		r.issued[to]++
	}
	rep := r.SharedWith(to)
	var batch []int32
	var own *msg.GroupInbox // a lone slot's core, kept in r.cores
	core := &own
	switch {
	case r.flat:
		g := r.assignment[to] - 1
		batch, core = r.rows[g], &r.groupCore[g]
	case rep >= 0:
		batch, core = r.slots.rawIdx[rep], &r.slots.classGI[rep]
	default:
		batch = r.slots.rawIdx[to]
	}
	if rep < 0 && r.spared.Len() == 0 {
		return msg.NewPooledInboxSoA(r.params.Numerate, &r.arena, batch)
	}
	if *core == nil {
		*core = r.fillCore(batch)
	}
	return msg.NewPooledInboxView(*core, &r.spared)
}

// fillCore fills one shared core for the round and keeps it for stop.
func (r *Router) fillCore(idx []int32) *msg.GroupInbox {
	core := msg.NewPooledGroupInbox(r.params.Numerate, &r.arena, idx)
	r.cores = append(r.cores, core)
	return core
}
