package psynchom

import (
	"math/bits"
	"slices"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// idTally counts, per (phase, value) row, the distinct identifiers that
// sent it: one ⌈(ℓ+1)/64⌉-word identifier bitset per row, all in one
// backing slice a process keeps for its whole life, so threshold checks
// ("t+1 identifiers", "ℓ−t identifiers") allocate nothing. The round
// scratch tallies use phase 0 and reset every round; the accept tables
// are cumulative over the execution. Rows stay sorted by (phase, value),
// so the first row of a phase that meets a quorum holds its smallest
// such value, and two tallies with the same rows hash alike.
//
// Identifiers outside 1..ℓ are not counted. The engines stamp every
// message with its sender's true identifier, and the broadcast layer
// accepts only valid ones, so none can arrive; the bitset simply has no
// bit for one.
type idTally struct {
	l, words int
	rows     []tallyRow
	ids      []uint64 // len(rows)*words
}

// tallyRow names one row of an idTally.
type tallyRow struct {
	phase int
	val   hom.Value
}

// find returns the index of the row named key, or where it belongs. A
// linear walk: a tally holds a handful of rows, and most lookups hit
// one of the first.
func (t *idTally) find(key tallyRow) (row int, found bool) {
	for i, k := range t.rows {
		if k == key {
			return i, true
		}
		if k.phase > key.phase || k.phase == key.phase && k.val > key.val {
			return i, false
		}
	}
	return len(t.rows), false
}

// reset empties the tally for a system with l identifiers.
func (t *idTally) reset(l int) {
	t.l, t.words = l, l/64+1
	t.rows = t.rows[:0]
	t.ids = t.ids[:0]
}

// add records that identifier id sent value v in phase.
func (t *idTally) add(phase int, v hom.Value, id hom.Identifier) {
	if !id.IsValid(t.l) {
		return
	}
	key := tallyRow{phase, v}
	row, found := t.find(key)
	if !found {
		t.rows = slices.Insert(t.rows, row, key)
		at := row * t.words
		t.ids = append(t.ids, make([]uint64, t.words)...)
		copy(t.ids[at+t.words:], t.ids[at:])
		clear(t.ids[at : at+t.words])
	}
	t.ids[row*t.words+int(id)/64] |= 1 << (uint(id) % 64)
}

// support returns the number of distinct identifiers of the row-th row.
func (t *idTally) support(row int) int {
	n := 0
	for _, w := range t.ids[row*t.words : (row+1)*t.words] {
		n += bits.OnesCount64(w)
	}
	return n
}

// supportOf returns the number of distinct identifiers that sent v in
// phase.
func (t *idTally) supportOf(phase int, v hom.Value) int {
	row, found := t.find(tallyRow{phase, v})
	if !found {
		return 0
	}
	return t.support(row)
}

// minSupported returns the smallest value sent in phase by at least
// quorum distinct identifiers.
func (t *idTally) minSupported(phase, quorum int) (hom.Value, bool) {
	for row, k := range t.rows {
		if k.phase == phase && t.support(row) >= quorum {
			return k.val, true
		}
	}
	return hom.NoValue, false
}

// clone returns a copy sharing no backing storage.
func (t *idTally) clone() idTally {
	return idTally{l: t.l, words: t.words, rows: slices.Clone(t.rows), ids: slices.Clone(t.ids)}
}

// hash folds every row and its identifier bitset into h.
func (t *idTally) hash(h msg.StateHash) msg.StateHash {
	h = h.Int(len(t.rows))
	for row, k := range t.rows {
		h = h.Int(k.phase).Int(int(k.val))
		for _, w := range t.ids[row*t.words : (row+1)*t.words] {
			h = h.Uint64(w)
		}
	}
	return h
}
