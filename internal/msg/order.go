package msg

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"homonyms/internal/hom"
)

// orderStack is the largest distinct set orderRefs packs on its own
// stack; longer ones borrow a buffer from orderScratch.
const orderStack = 32

// orderScratch lends orderRefs its packed-key buffer. A buffer is held
// for the duration of one sort only, so the pool never holds more of
// them than there were goroutines sorting at once — the inbox shells
// themselves keep no sort scratch between rounds.
var orderScratch = sync.Pool{New: func() any { return new([]uint64) }}

// markScratch lends orderByWalk its arena-sized mark column. Every
// holder returns it all zero, so a borrower only ever grows it.
var markScratch = sync.Pool{New: func() any { return new([]int32) }}

// orderInbox is orderRefs for an inbox over a SendArena. The walk costs
// the arena's length whatever the inbox holds, so an inbox whose own sort
// is cheaper (k·log k under that length: a masked, partitioned or
// targeted-only batch) keeps it. Both produce the one permutation.
func orderInbox(order, ref []int32, a *SendArena) []int32 {
	if k := len(ref); k*bits.Len(uint(k)) < len(a.ids) {
		return orderRefs(order, ref, a.ids, a.kids)
	}
	return orderByWalk(order, ref, a)
}

// orderByWalk derives orderRefs' permutation without sorting: it marks
// the first sights in an arena-sized column and walks the round order
// once, emitting each marked entry's position. Entries sharing a pair are
// copies of one message, of which a distinct set holds at most one.
func orderByWalk(order, ref []int32, a *SendArena) []int32 {
	round := a.sorted()
	lent := markScratch.Get().(*[]int32)
	if len(*lent) < len(round) {
		// Zero, like the one it replaces; doubled, as arenas grow by the round.
		*lent = make([]int32, 2*len(round))
	}
	mark := *lent
	for j, r := range ref {
		mark[r] = int32(j) + 1
	}
	order = slices.Grow(order[:0], len(ref))
	for _, si := range round {
		if p := mark[si]; p != 0 {
			order = append(order, p-1)
			mark[si] = 0
		}
	}
	markScratch.Put(lent)
	return order
}

// orderRefs arranges the positions 0..len(ref)-1 of an interned distinct
// set by ascending (identifier, KeyID) of the arena entries they name and
// returns them in order's backing array (grown when too small). It is the
// sort behind every inbox's indexed accessors, so its result fixes the
// order protocols first see messages in: any change here must leave the
// permutation identical to a comparison sort on (ids[ref[j]], kids[ref[j]]).
//
// The pairs are packed into single integers — identifier offset, KeyID,
// position, high to low — and sorted as plain uint64s: O(k log k) with no
// comparator calls and nothing allocated, which matters at the ~1600
// distinct messages of a late Figure-5 round. Distinct entries of one
// inbox have distinct KeyIDs, so the position bits never decide an
// order; they only carry the answer. Pairs too wide for 64 bits
// (identifiers spread over more than 2^(32-bits(k)) values) take a
// comparison sort on the same pairs instead.
func orderRefs(order, ref []int32, ids []hom.Identifier, kids []KeyID) []int32 {
	k := len(ref)
	if cap(order) < k {
		order = make([]int32, k)
	}
	order = order[:k]
	if k == 0 {
		return order
	}
	minID, maxID := ids[ref[0]], ids[ref[0]]
	for _, r := range ref[1:] {
		minID, maxID = min(minID, ids[r]), max(maxID, ids[r])
	}
	posBits := bits.Len(uint(k - 1))
	if bits.Len64(uint64(maxID)-uint64(minID))+32+posBits > 64 {
		for j := range order {
			order[j] = int32(j)
		}
		slices.SortFunc(order, func(a, b int32) int {
			ra, rb := ref[a], ref[b]
			if c := cmp.Compare(ids[ra], ids[rb]); c != 0 {
				return c
			}
			return cmp.Compare(kids[ra], kids[rb])
		})
		return order
	}
	if k <= orderStack {
		var stack [orderStack]uint64
		sortPacked(order, stack[:k], ref, ids, kids, minID, posBits)
		return order
	}
	lent := orderScratch.Get().(*[]uint64)
	*lent = slices.Grow((*lent)[:0], k)[:k]
	sortPacked(order, *lent, ref, ids, kids, minID, posBits)
	orderScratch.Put(lent)
	return order
}

// sortPacked is orderRefs' packed path over a caller-provided key buffer
// of len(ref) entries.
func sortPacked(order []int32, packed []uint64, ref []int32, ids []hom.Identifier, kids []KeyID, minID hom.Identifier, posBits int) {
	for j, r := range ref {
		key := (uint64(ids[r])-uint64(minID))<<32 | uint64(kids[r])
		packed[j] = key<<posBits | uint64(j)
	}
	slices.Sort(packed)
	posMask := uint64(1)<<posBits - 1
	for i, key := range packed {
		order[i] = int32(key & posMask)
	}
}
