package msg

import (
	"sync"
	"sync/atomic"
)

// GroupInbox is the shared reception core for one equivalence class of
// recipients: processes that received a byte-identical delivery batch
// this round (in practice, the correct members of one identifier group
// in an identifier-symmetric round). The engines' router fills it once —
// one KeyID-dense count array, one dedup pass, one lazily materialised
// sort index — and hands each class member a read-only *Inbox view
// (NewPooledInboxView), so the per-round fill cost scales with the
// number of identifier groups instead of the number of processes.
//
// Lifecycle invariants:
//
//   - The core is filled by the router before any view is handed out, and
//     every view is read on the goroutine that drives the execution. After
//     the fill, the only mutation is the lazy sort-index materialisation.
//   - Views are pooled Inbox shells. Each view's Recycle releases one
//     reference; when the last reference goes, the core zeroes the
//     counts it touched and returns itself to the pool. The expected
//     reference count is fixed at construction (the class size), so a
//     core can never outlive its round: the engines recycle every
//     inbox before the next BeginRound invalidates the arena.
//   - Like every SoA inbox, the core references the engine's SendArena
//     and is valid only until the round's arena reset.
type GroupInbox struct {
	numerate bool
	soa      *SendArena
	ref      []int32 // distinct messages, arrival order, arena indices
	kidCount []int32 // KeyID -> multiplicity
	total    int     // sum of multiplicities

	orderIdx []int32 // lazy sort index over the distinct set, built once it is asked for

	// refs counts the outstanding views. The counter is atomic so misuse
	// shows up under the race detector instead of corrupting the pool.
	refs atomic.Int32
}

// groupInboxPool recycles shared cores (the shell, its ref buffer, its
// dense count array and its sort index) across rounds.
var groupInboxPool = sync.Pool{New: func() any { return new(GroupInbox) }}

// NewPooledGroupInbox fills a shared reception core from the arena and
// the equivalence class's common delivery index. views is the number of
// read-only views that will be attached (the class size); the core
// returns to the pool when the last of them is recycled. The fill is
// the SoA fill of NewPooledInboxSoA, performed once for the whole
// class; steady state allocates nothing.
func NewPooledGroupInbox(numerate bool, arena *SendArena, idx []int32, views int) *GroupInbox {
	g := groupInboxPool.Get().(*GroupInbox)
	g.numerate = numerate
	g.soa = arena
	g.refs.Store(int32(views))
	g.ref, g.kidCount, g.total = fillDistinct(numerate, arena.kids, idx, g.ref, g.kidCount)
	return g
}

// NewPooledInboxView attaches one read-only pooled Inbox view to the
// shared core. The view consumes the core through the standard Inbox
// accessors (SenderAt/BodyAt/CountAt/IdentifierRange/Count/...), so
// protocol receive paths are oblivious to the sharing. The caller owns
// the view until Recycle, which releases the view's reference on the
// core.
func NewPooledInboxView(g *GroupInbox) *Inbox {
	in := inboxPool.Get().(*Inbox)
	in.pooled = true
	in.shared = g
	in.numerate = g.numerate
	in.interned = true
	return in
}

// sortIndex builds (on first access) and returns the sorted position
// index over the distinct set — the same (identifier, KeyID) order as the
// per-recipient inbox (orderInbox), paid once per equivalence class.
func (g *GroupInbox) sortIndex() []int32 {
	if len(g.orderIdx) != len(g.ref) {
		g.orderIdx = orderInbox(g.orderIdx, g.ref, g.soa)
	}
	return g.orderIdx
}

// release drops one view reference; the last one resets the core and
// returns it to the pool. Called from Inbox.Recycle.
func (g *GroupInbox) release() {
	if g.refs.Add(-1) > 0 {
		return
	}
	// Zero exactly the counts this round touched; the dense array
	// itself persists, keeping the steady-state fill allocation-free.
	for _, i := range g.ref {
		g.kidCount[g.soa.kids[i]] = 0
	}
	g.soa = nil
	g.ref = g.ref[:0]
	g.orderIdx = g.orderIdx[:0]
	g.total = 0
	groupInboxPool.Put(g)
}

// Len returns the number of distinct messages in the shared core.
func (g *GroupInbox) Len() int { return len(g.ref) }

// TotalCount returns the total number of message copies in the shared
// core (distinct messages for an innumerate class).
func (g *GroupInbox) TotalCount() int { return g.total }
