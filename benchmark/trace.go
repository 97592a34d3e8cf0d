package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// spanKind names a layer boundary. The trace is taken from outside the
// engine, at its public seams, so a kind is either a call the benchmark
// makes itself (select, new, run, check), a call the engine makes into a
// benchmark wrapper (state representation, process, adversary), or the
// gap between two such calls (route_flush, round_tail, teardown).
type spanKind uint8

const (
	spanOp spanKind = iota
	spanSelect
	spanNew
	spanRun
	spanPrepare
	spanRouteFlush
	spanDeliver
	spanRoundTail
	spanTeardown
	spanProtoPrepare
	spanProtoReceive
	spanAdvSends
	spanAdvDrop
	spanAdvObserve
	spanCheck
	spanMatrix
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanOp:           "op",
	spanSelect:       "core.select",
	spanNew:          "engine.new",
	spanRun:          "engine.run",
	spanPrepare:      "engine.prepare",
	spanRouteFlush:   "engine.route_flush",
	spanDeliver:      "engine.deliver",
	spanRoundTail:    "engine.round_tail",
	spanTeardown:     "engine.teardown",
	spanProtoPrepare: "protocol.prepare",
	spanProtoReceive: "protocol.receive",
	spanAdvSends:     "adversary.sends",
	spanAdvDrop:      "adversary.drop",
	spanAdvObserve:   "adversary.observe",
	spanCheck:        "trace.check",
	spanMatrix:       "solvability.matrix",
}

// span is one timed interval: its layer, when it ran (ns since the
// tracer's epoch), the span that caused it, and the op and round it
// belongs to. leaf is the part of the interval spent in protocol calls
// made directly from it (see tracer.leafEnd).
type span struct {
	start, end int64
	leaf       int64
	parent     int32
	op         int32
	round      int32
	kind       spanKind
}

// tracer records spans in memory for one traced pass. Spans nest
// strictly (the engine is sequential), so the innermost open span is
// the parent of the next one. After each op, fold turns the op's spans
// into per-layer self times and drops them; the first seed cycle's
// spans are kept for the JSONL dump.
type tracer struct {
	epoch time.Time
	spans []span
	selfs []int64 // fold's per-span scratch
	cur   int32   // innermost open span, -1 at top level
	gap   int32   // open route_flush/round_tail span, -1 if none
	op    int32
	round int32

	keep bool   // retain the first seed cycle's spans for the JSONL dump
	kept []span // the first seedCycle ops' spans, parents rebased

	ops    int
	self   [numSpanKinds]int64 // summed self time per layer, ns
	calls  [numSpanKinds]int64 // spans (or leaf calls) per layer
	opWall int64               // summed op span durations, ns

	// The current op's leaf calls, per layer; fold moves them into
	// self and calls.
	leafNS, leafCalls [numSpanKinds]int64

	draws, sharedDraws int64 // (round, correct recipient) inbox draws
}

func newTracer(keep bool) *tracer {
	return &tracer{epoch: time.Now(), cur: -1, gap: -1, keep: keep, spans: make([]span, 0, 1<<12)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open one. Safe on a nil
// tracer (the untraced pass), where it records nothing.
func (t *tracer) begin(k spanKind) int32 {
	if t == nil {
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, parent: t.cur, op: t.op, round: t.round, start: t.now()})
	t.cur = i
	return i
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.end = t.now()
	t.cur = s.parent
}

// leafEnd accounts one call into a protocol process that began at t0.
// Process calls are by far the most frequent boundary (n per phase per
// round), so they are not stored as spans of their own: two clock reads
// and three additions keep the tracing overhead of the
// millisecond-sized op inside its 10% budget. The time is summed per
// layer and charged to the innermost open span as covered by a child.
func (t *tracer) leafEnd(k spanKind, t0 int64) {
	d := t.now() - t0
	t.leafNS[k] += d
	t.leafCalls[k]++
	t.spans[t.cur].leaf += d
}

// openGap starts timing the engine code between two wrapper calls.
func (t *tracer) openGap(k spanKind) { t.gap = t.begin(k) }

// closeGap ends the open gap span, if any.
func (t *tracer) closeGap() {
	if t.gap >= 0 {
		t.end(t.gap)
		t.gap = -1
	}
}

// endRun closes the run span. The gap still open after the last
// DeliverRound ran to Run's return: it is the teardown, not a round
// tail.
func (t *tracer) endRun(run int32) {
	if t == nil {
		return
	}
	if t.gap >= 0 {
		t.spans[t.gap].kind = spanTeardown
		t.closeGap()
	}
	t.end(run)
}

// fold accounts the finished op's spans — self time is a span's
// duration minus the part its child spans cover — and clears them.
func (t *tracer) fold() {
	selfOf := append(t.selfs[:0], make([]int64, len(t.spans))...)
	t.selfs = selfOf
	for i := range t.spans {
		s := &t.spans[i]
		d := s.end - s.start
		selfOf[i] += d - s.leaf
		if s.parent >= 0 {
			selfOf[s.parent] -= d
		}
		if s.kind == spanOp {
			t.opWall += d
		}
	}
	for i := range t.spans {
		k := t.spans[i].kind
		t.self[k] += selfOf[i]
		t.calls[k]++
	}
	for k := range t.leafNS {
		t.self[k] += t.leafNS[k]
		t.calls[k] += t.leafCalls[k]
	}
	if t.keep && t.ops < seedCycle {
		base := int32(len(t.kept))
		for _, s := range t.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			t.kept = append(t.kept, s)
		}
	}
	t.ops++
	t.discard()
}

// discard drops an op's spans without accounting them (a failed op).
func (t *tracer) discard() {
	t.spans = t.spans[:0]
	t.leafNS, t.leafCalls = [numSpanKinds]int64{}, [numSpanKinds]int64{}
	t.cur, t.gap = -1, -1
	t.op++
	t.round = 0
}

// selfUS returns a layer's mean self time per traced op, in µs.
func (t *tracer) selfUS(k spanKind) float64 {
	if t.ops == 0 {
		return 0
	}
	return float64(t.self[k]) / 1e3 / float64(t.ops)
}

// writeJSONL writes the kept spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range t.kept {
		rec := struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Leaf   int64  `json:"protocol_ns,omitempty"`
			Parent int32  `json:"parent"`
			Op     int32  `json:"op"`
			Round  int32  `json:"round"`
		}{i, spanNames[s.kind], s.start, s.end, s.leaf, s.parent, s.op, s.round}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// tracedProc wraps a protocol process: Prepare and Receive are timed
// as protocol.* leaf calls. Init stays untimed (it runs inside
// engine.New and is part of engine.new by definition), and so does
// Decision: it is a field read in every protocol here, and two clock
// reads cost several times what it does. Its time therefore counts as
// engine.deliver_fill. Release passes through so pooled protocol
// tables are still returned.
type tracedProc struct {
	inner engine.Process
	t     *tracer
}

func (p *tracedProc) Init(ctx engine.Context) { p.inner.Init(ctx) }

func (p *tracedProc) Prepare(round int) []msg.Send {
	p.t.round = int32(round)
	t0 := p.t.now()
	out := p.inner.Prepare(round)
	p.t.leafEnd(spanProtoPrepare, t0)
	return out
}

func (p *tracedProc) Receive(round int, in *msg.Inbox) {
	t0 := p.t.now()
	p.inner.Receive(round, in)
	p.t.leafEnd(spanProtoReceive, t0)
}

func (p *tracedProc) Decision() (hom.Value, bool) { return p.inner.Decision() }

func (p *tracedProc) Release() {
	if r, ok := p.inner.(engine.Releaser); ok {
		r.Release()
	}
}

// tracedCollapsible is tracedProc for processes that can be cloned and
// fingerprinted: the counting representation only collapses classes of
// such processes, so the wrapper must not hide the capability (nor
// invent it for a process that lacks it).
type tracedCollapsible struct{ tracedProc }

func (p *tracedCollapsible) CloneProcess() engine.Process {
	return p.t.wrapProcess(p.inner.(engine.Cloner).CloneProcess())
}

func (p *tracedCollapsible) StateFingerprint() msg.StateHash {
	return p.inner.(engine.StateHasher).StateFingerprint()
}

func (t *tracer) wrapProcess(p engine.Process) engine.Process {
	if p == nil {
		return nil
	}
	_, clones := p.(engine.Cloner)
	_, hashes := p.(engine.StateHasher)
	if clones && hashes {
		return &tracedCollapsible{tracedProc{inner: p, t: t}}
	}
	return &tracedProc{inner: p, t: t}
}

// tracedAdv wraps an adversary: Sends and the drop queries become
// adversary.* spans. The engine picks its drop path by asserting
// BatchDropper and its delivery recording by asserting Observer, so
// wrapAdversary returns a variant with exactly the inner adversary's
// optional methods.
type tracedAdv struct {
	inner engine.Adversary
	t     *tracer
}

func (a *tracedAdv) Corrupt(p hom.Params, as hom.Assignment, inputs []hom.Value) []int {
	return a.inner.Corrupt(p, as, inputs)
}

func (a *tracedAdv) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	s := a.t.begin(spanAdvSends)
	out := a.inner.Sends(round, slot, view)
	a.t.end(s)
	return out
}

func (a *tracedAdv) Drop(round, from, to int) bool {
	s := a.t.begin(spanAdvDrop)
	out := a.inner.Drop(round, from, to)
	a.t.end(s)
	return out
}

func (a *tracedAdv) dropBatch(round, to int, froms []int32, drop []bool) {
	s := a.t.begin(spanAdvDrop)
	a.inner.(engine.BatchDropper).DropBatch(round, to, froms, drop)
	a.t.end(s)
}

func (a *tracedAdv) observe(round int, deliveries []msg.Delivered) {
	s := a.t.begin(spanAdvObserve)
	a.inner.(engine.Observer).Observe(round, deliveries)
	a.t.end(s)
}

type tracedAdvBatch struct{ tracedAdv }

func (a *tracedAdvBatch) DropBatch(round, to int, froms []int32, drop []bool) {
	a.dropBatch(round, to, froms, drop)
}

type tracedAdvObserver struct{ tracedAdv }

func (a *tracedAdvObserver) Observe(round int, d []msg.Delivered) { a.observe(round, d) }

type tracedAdvBatchObserver struct{ tracedAdvBatch }

func (a *tracedAdvBatchObserver) Observe(round int, d []msg.Delivered) { a.observe(round, d) }

func (t *tracer) wrapAdversary(adv engine.Adversary) engine.Adversary {
	base := tracedAdv{inner: adv, t: t}
	_, batch := adv.(engine.BatchDropper)
	_, observes := adv.(engine.Observer)
	switch {
	case batch && observes:
		return &tracedAdvBatchObserver{tracedAdvBatch{base}}
	case batch:
		return &tracedAdvBatch{base}
	case observes:
		return &tracedAdvObserver{base}
	}
	return &base
}

// tracedRep wraps the Concrete() state representation. Its two phase
// calls are the round's landmarks: everything the engine does between
// PrepareRound's return and DeliverRound's call is routing (adversary
// sends, stamp, link conditions, flush, classification), and
// everything between DeliverRound's return and the next PrepareRound
// is the round tail. Counting() cannot be wrapped this way: the engine
// recognises it through an unexported interface.
type tracedRep struct {
	inner engine.StateRep
	t     *tracer
	e     *engine.Engine
}

func (t *tracer) wrapStateRep(rep engine.StateRep) engine.StateRep {
	return &tracedRep{inner: rep, t: t}
}

func (r *tracedRep) Describe() string { return r.inner.Describe() }

func (r *tracedRep) Start(e *engine.Engine) error {
	r.e = e
	return r.inner.Start(e)
}

func (r *tracedRep) PrepareRound(round int) {
	r.t.closeGap()
	r.t.round = int32(round)
	s := r.t.begin(spanPrepare)
	r.inner.PrepareRound(round)
	r.t.end(s)
	r.t.openGap(spanRouteFlush)
}

func (r *tracedRep) DeliverRound(round int) {
	r.t.closeGap()
	// Sample the router's reception classifier before the draws
	// consume it: the share of correct recipients whose inbox is a
	// view over a shared core this round.
	router := r.e.Router()
	for to := 0; to < r.e.N(); to++ {
		if r.e.IsBad(to) {
			continue
		}
		r.t.draws++
		if router.SharedWith(to) >= 0 {
			r.t.sharedDraws++
		}
	}
	s := r.t.begin(spanDeliver)
	r.inner.DeliverRound(round)
	r.t.end(s)
	r.t.openGap(spanRoundTail)
}

func (r *tracedRep) Stop() { r.inner.Stop() }
