package msg

import (
	"slices"
	"sync"
)

// GroupInbox is the reception core every Inbox reads: the filled
// storage of one delivery batch over a SendArena. An Inbox embeds one
// for its own batch; shared, it serves one equivalence class of
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
//   - The core references the engine's SendArena and is valid only until
//     the round's arena reset.
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
	g.fillDistinct(numerate, arena, idx)
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
	in.core = g
	return in
}

// fillDistinct folds one delivery batch into the core's KeyID-dense
// count array, reading only the arena's KeyID and copies columns: first
// sights go to ref (at most one per KeyID in play, however many
// homonyms' copies the batch carries), and every entry adds its copies
// for a numerate receiver — one fill of an entry standing for k copies is
// the fill of k entries. The core must be empty (new, or reset).
func (g *GroupInbox) fillDistinct(numerate bool, a *SendArena, idx []int32) {
	kids, copies := a.kids, a.copies
	maxKid := KeyID(0)
	for _, i := range idx {
		maxKid = max(maxKid, kids[i])
	}
	counts := growCounts(g.kidCount, maxKid)
	ref := slices.Grow(g.ref[:0], min(len(idx), int(maxKid)+1))
	total := 0
	for _, i := range idx {
		kid, w := kids[i], int32(1)
		switch c := counts[kid]; {
		case c == 0:
			ref = append(ref, i)
		case !numerate:
			continue
		}
		if numerate {
			w = copies[i]
		}
		counts[kid] += w
		total += int(w)
	}
	g.numerate, g.soa, g.ref, g.kidCount, g.total = numerate, a, ref, counts, total
}

// growCounts sizes a dense count array to cover maxKid.
func growCounts(counts []int32, maxKid KeyID) []int32 {
	n := int(maxKid) + 1
	switch {
	case n <= len(counts):
	case n <= cap(counts):
		// The region beyond the old length was never written (counts are
		// zeroed when their core is reset), so extending is free.
		counts = counts[:n]
	default:
		counts = append(make([]int32, 0, 2*n), counts...)[:n]
	}
	return counts
}

// sortIndex builds (on first access) and returns the sorted position
// index over the distinct set: sortIndex()[i] is the arrival-order
// position of the i-th message in (identifier, KeyID) order (orderInbox),
// paid once per core however many views read it. Rounds whose receivers
// never look at the messages (or only count) skip the sort entirely.
func (g *GroupInbox) sortIndex() []int32 {
	if len(g.orderIdx) != len(g.ref) {
		g.orderIdx = orderInbox(g.orderIdx, g.ref, g.soa)
	}
	return g.orderIdx
}

// at returns the arena index of the i-th distinct message in sorted
// order.
func (g *GroupInbox) at(i int) int32 { return g.ref[g.sortIndex()[i]] }

// countOf returns the multiplicity of the distinct message at arena
// index r.
func (g *GroupInbox) countOf(r int32) int { return int(g.kidCount[g.soa.kids[r]]) }

// Recycle resets the core and returns it to the pool. Every view of it
// must have been recycled first; afterwards the core is invalid.
func (g *GroupInbox) Recycle() {
	g.reset()
	groupInboxPool.Put(g)
}

// reset empties the core, keeping its buffers. It zeroes exactly the
// counts the fill touched: the dense array itself persists, keeping the
// steady-state fill allocation-free.
func (g *GroupInbox) reset() {
	for _, i := range g.ref {
		g.kidCount[g.soa.kids[i]] = 0
	}
	g.soa = nil
	g.ref = g.ref[:0]
	g.orderIdx = g.orderIdx[:0]
	g.total = 0
}

// Len returns the number of distinct messages in the shared core.
func (g *GroupInbox) Len() int { return len(g.ref) }

// TotalCount returns the total number of message copies in the shared
// core (distinct messages for an innumerate class).
func (g *GroupInbox) TotalCount() int { return g.total }
