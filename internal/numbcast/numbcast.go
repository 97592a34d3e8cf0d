// Package numbcast implements the paper's Figure-6 authenticated broadcast
// with multiplicities, for numerate processes against restricted Byzantine
// processes (Appendix A.3.1). Where package authbcast counts distinct
// identifiers, this primitive counts message copies and carries an
// explicit multiplicity estimate α with each Accept:
//
//   - Correctness: if α correct processes with identifier i perform
//     Broadcast(i, m, r) in superround r ≥ T, every correct process
//     performs Accept(i, α′, m, r) with α′ ≥ α during superround r.
//   - Relay: if a correct process performs Accept(i, α, m, r) in
//     superround r′ ≥ r, every correct process performs
//     Accept(i, α′, m, r) with α′ ≥ α in superround max(r′, T)+1.
//   - Unforgeability: if α correct processes with identifier i perform
//     Broadcast(i, m, r) and some correct process performs
//     Accept(i, α′, m, r), then 0 ≤ α′ ≤ α + f_i where f_i is the number
//     of Byzantine processes holding identifier i.
//   - Unicity: at most one Accept(i, ∗, m, r) per superround.
//
// Wire protocol: each process sends one bundle per round containing its
// entire table a[h, m, k] as (echo, h, a[h,m,k], m, k) tuples, plus
// (init, i, m, r) tuples in the first round of superround r for each
// Broadcast it performs. A bundle is valid if it contains at most one init
// tuple per (m, r) with r the current superround, and at most one echo
// tuple per (h, m, k); invalid bundles are discarded entirely. Thresholds
// n−2t (adopt an estimate) and n−t (accept) count received bundle copies
// — this is where numeracy is essential.
//
// A round costs what changed. A tuple body's key is built once, into a
// segment shared by every tuple and cell made from it: bundle keys are
// written from segments, and an unchanged table re-sends the same *Bundle.
// A receiver hashes a segment's key on first sight and finds it by pointer
// after; cells are found by (body ID, h, k), and per-round counts, support
// groups and validity dedup index arrays by those IDs. Release returns the
// whole table to a pool for the next execution.
package numbcast

import (
	"cmp"
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// Validation errors.
var (
	ErrResilience = errors.New("numbcast: multiplicity broadcast requires n > 3t")
)

// InitTuple is an (init, m) element of a bundle; the sender identifier and
// superround are implicit (stamped identifier, current round).
type InitTuple struct {
	Body msg.Payload
	seg  *segment
}

// EchoTuple is an (echo, h, α, m, k) element of a bundle.
type EchoTuple struct {
	H    hom.Identifier
	A    int
	Body msg.Payload
	K    int
	seg  *segment
}

// segment is a tuple body's share of a bundle key, built once from the
// body by numbcast: its canonical key, which orders tuples, and the bytes
// KeyBuilder.Nested writes for it ("|" and the escaped key). Tuples built
// outside numbcast carry none; NewBundle gives them one.
type segment struct {
	key, nested string
}

// newSegment builds the segment of body in kb's scratch.
func newSegment(kb *msg.KeyBuilder, body msg.Payload) *segment {
	key := body.Key()
	return &segment{key: key, nested: kb.Reset("").Str(key).String()}
}

// tupleCmp is the canonical tuple order: identifier, superround, body key.
func tupleCmp(ah hom.Identifier, ak int, as *segment, bh hom.Identifier, bk int, bs *segment) int {
	return cmp.Or(cmp.Compare(ah, bh), cmp.Compare(ak, bk), strings.Compare(as.key, bs.key))
}

// Bundle is the single per-round message of the Figure-6 protocol. A
// bundle is immutable once built: receivers trust its key and segments.
type Bundle struct {
	Inits  []InitTuple
	Echoes []EchoTuple
	key    string
}

// NewBundle builds a bundle in canonical order with a cached key. The key
// embeds tuple bodies through the escaping KeyBuilder path, so bodies
// containing separator bytes cannot make two distinct bundles collide.
func NewBundle(inits []InitTuple, echoes []EchoTuple) *Bundle {
	var kb msg.KeyBuilder
	is := make([]InitTuple, len(inits))
	for i, it := range inits {
		is[i] = InitTuple{Body: it.Body, seg: newSegment(&kb, it.Body)}
	}
	es := make([]EchoTuple, len(echoes))
	for i, et := range echoes {
		et.seg = newSegment(&kb, et.Body)
		es[i] = et
	}
	slices.SortFunc(is, func(a, b InitTuple) int { return strings.Compare(a.seg.key, b.seg.key) })
	slices.SortFunc(es, func(a, b EchoTuple) int {
		return cmp.Or(tupleCmp(a.H, a.K, a.seg, b.H, b.K, b.seg), cmp.Compare(a.A, b.A))
	})
	return &Bundle{Inits: is, Echoes: es, key: string(appendKey(nil, is, es))}
}

// appendKey writes the canonical key of a bundle whose tuples are in
// canonical order — the bytes of KeyBuilder's Reset("numbundle").Int(#inits),
// then Nested(m) per init and Identifier(h).Int(α).Int(k).Nested(m) per
// echo — from the tuples' segments.
func appendKey(buf []byte, inits []InitTuple, echoes []EchoTuple) []byte {
	buf = strconv.AppendInt(append(buf, "numbundle|"...), int64(len(inits)), 10)
	for _, it := range inits {
		buf = append(buf, it.seg.nested...)
	}
	for _, et := range echoes {
		buf = strconv.AppendInt(append(buf, '|'), int64(et.H), 10)
		buf = strconv.AppendInt(append(buf, '|'), int64(et.A), 10)
		buf = strconv.AppendInt(append(buf, '|'), int64(et.K), 10)
		buf = append(buf, et.seg.nested...)
	}
	return buf
}

// Key implements msg.Payload.
func (b *Bundle) Key() string { return b.key }

// Delivery is one bundle of a round's inbox: its authenticated sender
// identifier and the number of copies received.
type Delivery struct {
	ID     hom.Identifier
	Bundle *Bundle
	Copies int
}

// Accept records one Accept(i, α, m, r) action.
type Accept struct {
	ID    hom.Identifier
	Alpha int
	Body  msg.Payload
	SR    int
}

// entry is one a[h, m, k] table cell. Cells live by value in the arena in
// first-sight order; order lists them canonically.
type entry struct {
	h     hom.Identifier
	body  msg.Payload
	seg   *segment
	k     int
	alpha int
}

// alphaCopy is one (α, copies) support sample for a cell.
type alphaCopy struct {
	alpha, copies int
}

// echoAcc accumulates the round's echo support for a tuple.
type echoAcc struct {
	ti      int32
	h       hom.Identifier
	body    msg.Payload
	seg     *segment
	k       int
	support []alphaCopy
}

// tupleID names an (h, m, k) tuple by its body's ID; (m, 0, 0) stands for
// a bundle's init of m in validity dedup.
type tupleID struct {
	body msg.KeyID
	h    hom.Identifier
	k    int
}

// slot is the state of one tuple index.
type slot struct {
	cell, echo int32  // arena index + 1, echoAcc index + 1; 0 = none
	seen       uint64 // bundle-validity generation stamp
}

// ntable is the recyclable storage of a Broadcaster: the body intern
// table, the tuple index, the cell arena, and the per-round scratch.
type ntable struct {
	kb      msg.KeyBuilder
	keyBuf  []byte                 // the bundle key writer's buffer
	bodies  *msg.Interner          // body segment bytes -> body ID
	bodyOf  map[*segment]msg.KeyID // a segment's body ID, after its first sight
	tupleAt map[tupleID]int32      // tuple -> index into slots, first sights numbered
	slots   []slot
	cells   []entry
	order   []int32 // cell indices in canonical order

	last      *Bundle // the standing bundle Outgoing re-sends
	lastInits bool    // last carried inits, which the next round drops
	dirty     bool    // an α changed since last was built

	seenGen uint64
	valid   []Delivery // the round's valid deliveries
	ids     []int32    // their tuples: inits' body IDs, then echoes' indices
	echoAcc []echoAcc
	sortBuf []alphaCopy
	accepts []Accept
}

// bodyID returns the dense ID of a tuple body: by pointer once its
// segment has been seen, from the segment's bytes on first sight, and
// from the body's key, built, for a tuple without a segment.
func (t *ntable) bodyID(body msg.Payload, seg *segment) msg.KeyID {
	if seg == nil {
		return t.kb.Reset("").Nested(body).Intern(t.bodies)
	}
	id, ok := t.bodyOf[seg]
	if !ok {
		id = t.bodies.Intern(seg.nested)
		t.bodyOf[seg] = id
	}
	return id
}

// tuple returns the index of the (body, h, k) tuple.
func (t *ntable) tuple(body msg.KeyID, h hom.Identifier, k int) int32 {
	ti, ok := t.tupleAt[tupleID{body, h, k}]
	if !ok {
		ti = int32(len(t.slots))
		t.tupleAt[tupleID{body, h, k}] = ti
		t.slots = append(t.slots, slot{})
	}
	return ti
}

var tablePool = sync.Pool{New: func() any {
	return &ntable{bodies: msg.NewInterner(), bodyOf: map[*segment]msg.KeyID{}, tupleAt: map[tupleID]int32{}}
}}

// Broadcaster is the per-process Figure-6 component. Construct with New.
type Broadcaster struct {
	n, t    int
	pending []msg.Payload
	tab     *ntable
}

// New returns a broadcaster for n processes with l identifiers and at most
// t restricted Byzantine processes.
func New(n, l, t int) (*Broadcaster, error) {
	if n <= 3*t {
		return nil, ErrResilience
	}
	return newBroadcaster(n, t), nil
}

// newBroadcaster builds a broadcaster without the resilience check (the
// fuzz host probes below the bound on purpose). Pooled tables were reset
// on Release.
func newBroadcaster(n, t int) *Broadcaster {
	return &Broadcaster{n: n, t: t, tab: tablePool.Get().(*ntable)}
}

// Release empties the broadcaster's arena-backed table, dropping every
// payload reference (Ingest leaves none in echoAcc), and returns it to the
// shared pool. The broadcaster is unusable afterwards.
func (b *Broadcaster) Release() {
	t := b.tab
	if t == nil {
		return
	}
	t.bodies.Reset()
	clear(t.bodyOf)
	clear(t.tupleAt)
	clear(t.cells)
	t.slots, t.cells, t.order = t.slots[:0], t.cells[:0], t.order[:0]
	t.last, t.lastInits, t.dirty = nil, false, false
	clear(t.valid[:cap(t.valid)])
	clear(t.accepts[:cap(t.accepts)])
	tablePool.Put(t)
	b.tab = nil
}

// Broadcast queues m for initiation at the next init round under the
// host's identifier.
func (b *Broadcaster) Broadcast(m msg.Payload) {
	b.pending = append(b.pending, m)
}

// Outgoing returns the single bundle to broadcast this round, or nil when
// there is nothing to send (empty table and no pending init). While no
// init is pending and no α has changed, that is the previous round's
// *Bundle itself; otherwise the echoes are the cells with α > 0 in
// canonical order, and the key is written from their segments.
func (b *Broadcaster) Outgoing(round int) msg.Payload {
	t := b.tab
	var inits []InitTuple
	if hom.IsInitRound(round) {
		for _, m := range b.pending {
			inits = append(inits, InitTuple{Body: m, seg: newSegment(&t.kb, m)})
		}
		b.pending = nil
	}
	if len(inits) > 0 || t.dirty || t.lastInits {
		t.dirty, t.lastInits, t.last = false, len(inits) > 0, nil
		var echoes []EchoTuple
		for _, ci := range t.order {
			if c := &t.cells[ci]; c.alpha > 0 {
				echoes = append(echoes, EchoTuple{H: c.h, A: c.alpha, Body: c.body, K: c.k, seg: c.seg})
			}
		}
		if len(inits) > 0 || len(echoes) > 0 {
			slices.SortFunc(inits, func(a, b InitTuple) int { return strings.Compare(a.seg.key, b.seg.key) })
			t.keyBuf = appendKey(t.keyBuf[:0], inits, echoes)
			t.last = &Bundle{Inits: inits, Echoes: echoes, key: string(t.keyBuf)}
		}
	}
	if t.last == nil {
		return nil
	}
	return t.last
}

// resolve applies the paper's validity rules to a bundle received at the
// given round — at most one init tuple per (m), inits only in an init
// round, at most one echo tuple per (h, m, k), k at most the current
// superround — and appends its tuples' IDs to ids. Every rule runs on
// every delivery; only the IDs are found by lookup. On a false return the
// caller drops what was appended.
func (b *Broadcaster) resolve(bundle *Bundle, round int) bool {
	if len(bundle.Inits) > 0 && !hom.IsInitRound(round) {
		return false
	}
	sr := hom.Superround(round)
	t := b.tab
	t.seenGen++
	for _, it := range bundle.Inits {
		if it.Body == nil {
			return false
		}
		id := t.bodyID(it.Body, it.seg)
		if !t.fresh(t.tuple(id, 0, 0)) {
			return false
		}
		t.ids = append(t.ids, int32(id))
	}
	for _, et := range bundle.Echoes {
		if et.Body == nil || et.A < 0 || et.K < 1 || et.K > sr || !et.H.IsValid(maxIdentifiers) {
			return false
		}
		ti := t.tuple(t.bodyID(et.Body, et.seg), et.H, et.K)
		if !t.fresh(ti) {
			return false
		}
		t.ids = append(t.ids, ti)
	}
	return true
}

// fresh stamps tuple ti with the current validity generation, reporting
// whether this bundle had not stamped it yet.
func (t *ntable) fresh(ti int32) bool {
	s := &t.slots[ti]
	ok := s.seen != t.seenGen
	s.seen = t.seenGen
	return ok
}

// maxIdentifiers bounds identifier validation inside bundles; actual
// protocol identifiers are validated against l by the host, this guard
// only rejects nonsense.
const maxIdentifiers = 1 << 20

// cell returns the arena index of the tuple's a[h, m, k] cell, creating
// it on first sight with the segment of the tuple that created it.
func (t *ntable) cell(ti int32, h hom.Identifier, body msg.Payload, seg *segment, k int) int {
	if pos := t.slots[ti].cell; pos != 0 {
		return int(pos) - 1
	}
	if seg == nil {
		seg = newSegment(&t.kb, body)
	}
	ci := int32(len(t.cells))
	t.cells = append(t.cells, entry{h: h, body: body, seg: seg, k: k})
	t.slots[ti].cell = ci + 1
	at, _ := slices.BinarySearchFunc(t.order, ci, func(o, _ int32) int {
		c := &t.cells[o]
		return tupleCmp(c.h, c.k, c.seg, h, k, seg)
	})
	t.order = slices.Insert(t.order, at, ci)
	return int(ci)
}

// echoGroup returns the round's echo accumulator for a tuple, creating it
// on first sight. Reused slots keep their support capacity.
func (t *ntable) echoGroup(ti int32, et EchoTuple) *echoAcc {
	if pos := t.slots[ti].echo; pos != 0 {
		return &t.echoAcc[pos-1]
	}
	if len(t.echoAcc) < cap(t.echoAcc) {
		t.echoAcc = t.echoAcc[:len(t.echoAcc)+1]
	} else {
		t.echoAcc = append(t.echoAcc, echoAcc{})
	}
	g := &t.echoAcc[len(t.echoAcc)-1]
	g.ti, g.h, g.body, g.seg, g.k, g.support = ti, et.H, et.Body, et.seg, et.K, g.support[:0]
	t.slots[ti].echo = int32(len(t.echoAcc))
	return g
}

// Ingest processes the round's bundle deliveries (Copies ≥ 1 each), at
// most once per round. Accepts are only performed in the second round of
// each superround (unicity); the returned slice is in deterministic
// (first-sight over the deliveries) order, and valid until the next
// Ingest.
func (b *Broadcaster) Ingest(round int, in []Delivery) []Accept {
	sr := hom.Superround(round)
	t := b.tab
	t.valid, t.ids = t.valid[:0], t.ids[:0]
	for _, d := range in {
		if mark := len(t.ids); b.resolve(d.Bundle, round) {
			t.valid = append(t.valid, d)
		} else {
			t.ids = t.ids[:mark]
		}
	}

	// Lines 13–14: init counting (first round of a superround). α is the
	// total number of valid message copies from identifier h containing
	// (init, h, m, sr). No echo of superround sr was valid before this
	// round, and inits count first, so each cell counted is new.
	if hom.IsInitRound(round) {
		at := 0
		for _, d := range t.valid {
			for _, it := range d.Bundle.Inits {
				ci := t.cell(t.tuple(msg.KeyID(t.ids[at]), d.ID, sr), d.ID, it.Body, it.seg, sr)
				t.cells[ci].alpha += d.Copies
				t.dirty = true
				at++
			}
			at += len(d.Bundle.Echoes)
		}
	}

	// Lines 15–18: adopt echo estimates supported by n−2t message copies.
	// For each (h, m, k), α1 = max{α : at least n−2t copies carried
	// (echo, h, α′, m, k) with α′ ≥ α}.
	at := 0
	for _, d := range t.valid {
		at += len(d.Bundle.Inits)
		for _, et := range d.Bundle.Echoes {
			g := t.echoGroup(t.ids[at], et)
			g.support = append(g.support, alphaCopy{alpha: et.A, copies: d.Copies})
			at++
		}
	}

	accepts := t.accepts[:0]
	for i := range t.echoAcc {
		g := &t.echoAcc[i]
		if alpha1, ok := t.thresholdAlpha(g.support, b.n-2*b.t); ok {
			if ci := t.cell(g.ti, g.h, g.body, g.seg, g.k); alpha1 > t.cells[ci].alpha {
				t.cells[ci].alpha, t.dirty = alpha1, true
			}
		}
		// Lines 19–21: accept on n−t copies, in the second round of the
		// superround only.
		if !hom.IsInitRound(round) {
			if alpha2, ok := t.thresholdAlpha(g.support, b.n-b.t); ok {
				accepts = append(accepts, Accept{ID: g.h, Alpha: alpha2, Body: g.body, SR: g.k})
			}
		}
		t.slots[g.ti].echo = 0
		g.body, g.seg = nil, nil
	}
	t.echoAcc = t.echoAcc[:0]
	t.accepts = accepts
	return accepts
}

// thresholdAlpha returns the largest α such that message copies carrying
// α′ ≥ α number at least need; ok is false when even α = 0 lacks support.
// The support samples are insertion-sorted into a reusable buffer
// (descending α), so the scan allocates nothing in steady state.
func (t *ntable) thresholdAlpha(support []alphaCopy, need int) (int, bool) {
	if need <= 0 {
		need = 1
	}
	buf := t.sortBuf[:0]
	for _, s := range support {
		pos := len(buf)
		for pos > 0 && buf[pos-1].alpha < s.alpha {
			pos--
		}
		buf = append(buf, alphaCopy{})
		copy(buf[pos+1:], buf[pos:])
		buf[pos] = s
	}
	t.sortBuf = buf
	run := 0
	for _, s := range buf {
		run += s.copies
		if run >= need {
			return s.alpha, true
		}
	}
	return 0, false
}

// Fingerprint folds the broadcaster's state into h in canonical order:
// the pending inits' body keys, sorted, then every cell with α > 0 as
// (h, k, body key, α) in tuple order. Nothing else decides what Outgoing
// and Ingest do next — the standing bundle caches the table, and body IDs
// are table-local — so two broadcasters that saw the same tuples in
// another order fingerprint the same.
func (b *Broadcaster) Fingerprint(h msg.StateHash) msg.StateHash {
	pending := make([]string, len(b.pending))
	for i, m := range b.pending {
		pending[i] = m.Key()
	}
	slices.Sort(pending)
	h = h.Int(len(pending))
	for _, k := range pending {
		h = h.String(k)
	}
	t := b.tab
	for _, ci := range t.order {
		if c := &t.cells[ci]; c.alpha > 0 {
			h = h.Int(int(c.h)).Int(c.k).String(c.seg.key).Int(c.alpha)
		}
	}
	return h
}

// TableSize reports the number of tracked cells (tests and memory
// accounting).
func (b *Broadcaster) TableSize() int { return len(b.tab.cells) }
