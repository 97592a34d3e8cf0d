package psynchom

import (
	"math/bits"

	"homonyms/internal/hom"
)

// idTally counts, per value, the distinct identifiers that sent it in one
// round: one ⌈(ℓ+1)/64⌉-word identifier bitset per value seen, all in one
// backing slice a process keeps for its whole life, so a round's
// threshold checks ("t+1 identifiers", "ℓ−t identifiers") allocate
// nothing. Values are found by linear scan: a round carries a handful
// of them (the domain, plus whatever t Byzantine senders make up).
//
// Identifiers outside 1..ℓ are not counted. The engines stamp every
// message with its sender's true identifier, so none can arrive; the
// bitset simply has no bit for one.
type idTally struct {
	l, words int
	vals     []hom.Value
	ids      []uint64 // len(vals)*words
}

// reset empties the tally for a round of a system with l identifiers.
func (t *idTally) reset(l int) {
	t.l, t.words = l, l/64+1
	t.vals = t.vals[:0]
	t.ids = t.ids[:0]
}

// add records that identifier id sent value v.
func (t *idTally) add(v hom.Value, id hom.Identifier) {
	if !id.IsValid(t.l) {
		return
	}
	row := 0
	for row < len(t.vals) && t.vals[row] != v {
		row++
	}
	if row == len(t.vals) {
		t.vals = append(t.vals, v)
		for i := 0; i < t.words; i++ {
			t.ids = append(t.ids, 0)
		}
	}
	t.ids[row*t.words+int(id)/64] |= 1 << (uint(id) % 64)
}

// support returns the number of distinct identifiers that sent the
// row-th value (rows follow first-add order; see vals).
func (t *idTally) support(row int) int {
	n := 0
	for _, w := range t.ids[row*t.words : (row+1)*t.words] {
		n += bits.OnesCount64(w)
	}
	return n
}

// minSupported returns the smallest value sent by at least quorum
// distinct identifiers.
func (t *idTally) minSupported(quorum int) (hom.Value, bool) {
	best, ok := hom.NoValue, false
	for row, v := range t.vals {
		if t.support(row) >= quorum && (!ok || v < best) {
			best, ok = v, true
		}
	}
	return best, ok
}
