package msg

import "sync"

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
//   - The core is filled before any view is handed out, and every view is
//     read on the goroutine that drives the execution. After the fill,
//     the only mutation is the lazy sort-index materialisation.
//   - Views are pooled Inbox shells that own nothing of the core: a
//     view's Recycle returns only the shell. The core belongs to whoever
//     filled it, who calls Recycle once every view is done — the engines'
//     router at the start of the next round, before it resets the arena.
//   - Like every SoA inbox, the core references the engine's SendArena
//     and is valid only until the round's arena reset.
type GroupInbox struct {
	numerate bool
	soa      *SendArena
	ref      []int32 // distinct messages, arrival order, arena indices
	kidCount []int32 // KeyID -> multiplicity
	total    int     // sum of multiplicities

	orderIdx []int32 // lazy sort index over the distinct set, built once it is asked for
}

// groupInboxPool recycles shared cores (the shell, its ref buffer, its
// dense count array and its sort index) across rounds.
var groupInboxPool = sync.Pool{New: func() any { return new(GroupInbox) }}

// NewPooledGroupInbox fills a shared reception core from the arena and
// the equivalence class's common delivery index. The fill is the SoA fill
// of NewPooledInboxSoA, performed once for the whole class; steady state
// allocates nothing. The caller owns the core until Recycle. A trailing
// argument is ignored: it was the number of views a core once counted
// down to its own release, and the repository benchmark still passes it.
func NewPooledGroupInbox(numerate bool, arena *SendArena, idx []int32, _ ...int) *GroupInbox {
	g := groupInboxPool.Get().(*GroupInbox)
	g.numerate = numerate
	g.soa = arena
	g.ref, g.kidCount, g.total = fillDistinct(numerate, arena, idx, g.ref, g.kidCount)
	return g
}

// NewPooledInboxView attaches one read-only pooled Inbox view to the
// shared core. The view consumes the core through the standard Inbox
// accessors (SenderAt/BodyAt/CountAt/IdentifierRange/Count/...), so
// protocol receive paths are oblivious to the sharing. The caller owns
// the view until Recycle, which must come before the core's.
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

// Recycle resets the core and returns it to the pool. Every view of it
// must have been recycled first; afterwards the core is invalid.
func (g *GroupInbox) Recycle() {
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
