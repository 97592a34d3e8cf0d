// Package refmodel is a reference interpreter of the round model of §2
// of Delporte-Gallet et al., "Byzantine agreement with homonyms" (PODC
// 2011): lockstep rounds in which every correct process sends, the
// network stamps each message with its sender's true identifier, drops
// what the adversary may drop before GST, and hands every process the
// set (innumerate) or multiset (numerate) of what reached it.
//
// It executes one engine.Config, time model included, the naive way —
// per slot, per message, over plain slices — and reports an
// engine.Result, so the engine running the same Config (engine.Run(cfg))
// can be held to it field for field (Diff, Hold). It shares the engine's
// Process, Adversary and Observer contracts, inject.Compile's fault
// verdicts and msg.NewInbox, and nothing of its routing (no send arena,
// rows, tails, reception classes, stamp memos or shared inboxes). Only
// tests import it. An inbox orders messages by identifier, then by first
// send in the execution, so the interpreter names messages in a
// msg.Interner of its own. The state is spelled out as in a TLA+
// specification — proposals, decisions, process states, is_byzantine and
// the network — and the model's round predicate is checked over it after
// every round.
package refmodel

import (
	"cmp"
	"fmt"
	"slices"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
)

// inFlight is one delivery a timing fault holds past its send round,
// with its sender's retransmit timer.
type inFlight struct {
	from, to int
	body     msg.Payload
	due      int // the round it surfaces in
	retry    int // the round the sender next retransmits; 0 = no timer
	attempts int
}

// world is one execution's state.
type world struct {
	cfg         engine.Config
	n           int
	gst         int
	timing      engine.TimingPolicy
	faults      *inject.Injector
	replays     []inject.Replay
	retained    [][]msg.Payload // per replay: bodies its source link carried
	names       *msg.Interner   // messages in the order they were first sent
	states      []engine.Process
	isByzantine []bool
	corrupted   []int
	res         *engine.Result // proposals, decisions and statistics
	stamped     int            // transmissions so far, against MaxSends
	pending     []inFlight
	round       int
	inbox       [][]msg.Message // per slot: what reached it this round
	log         []msg.Delivered // this round's deliveries, send-major
}

// Run executes cfg under its time model (Lockstep when nil) and reports
// what the engine would report: decisions and their rounds, rounds run,
// the budget stop, statistics, and — when cfg asks — traffic and the
// final class states. cfg must be one engine.New accepts; the
// engine runs it as engine.Run(cfg). An error reports an
// invalid corruption or fault schedule, or a broken model property.
func Run(cfg engine.Config) (*engine.Result, error) {
	w, err := start(cfg)
	if err != nil {
		return nil, err
	}
	extra := cfg.ExtraRounds
	for round := 1; round <= cfg.MaxRounds; round++ {
		w.step(round)
		if err := w.check(); err != nil {
			return nil, err
		}
		if cfg.MaxSends > 0 && w.stamped >= cfg.MaxSends {
			w.res.Stopped = engine.StopMessageBudget
			break
		}
		if w.undecided() == 0 {
			if extra == 0 {
				break
			}
			extra--
		}
	}
	w.res.AllDecided = w.undecided() == 0
	if cfg.RecordClasses {
		w.res.Classes = w.classes()
	}
	return w.res, nil
}

// classes reports the final state as engine.Result.Classes does: the
// correct slots counted by (identifier, fingerprint), then the
// adversary's fingerprint under identifier 0.
func (w *world) classes() (out []engine.ClassState) {
	for s, p := range w.states {
		if p == nil {
			continue
		}
		cs := engine.ClassState{ID: w.cfg.Assignment[s], Size: 1}
		if h, ok := p.(engine.StateHasher); ok {
			cs.FP = h.StateFingerprint()
		}
		if i := slices.IndexFunc(out, func(o engine.ClassState) bool { return o.ID == cs.ID && o.FP == cs.FP }); i >= 0 {
			out[i].Size++
		} else {
			out = append(out, cs)
		}
	}
	slices.SortFunc(out, func(a, b engine.ClassState) int { return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.FP, b.FP)) })
	if h, ok := w.cfg.Adversary.(engine.StateHasher); ok {
		out = append(out, engine.ClassState{FP: h.StateFingerprint()})
	}
	return out
}

// start builds the initial state: the adversary's corruption, one
// initialised process per correct slot, the compiled fault schedule.
func start(cfg engine.Config) (*world, error) {
	n := cfg.Params.N
	tm := cfg.TimeModel
	if tm == nil {
		tm = engine.Lockstep{}
	}
	w := &world{cfg: cfg, n: n, gst: max(cfg.GST, 1), timing: tm.Timing(),
		isByzantine: make([]bool, n), names: msg.NewInterner(), states: make([]engine.Process, n)}
	if cfg.Adversary != nil {
		bad := cfg.Adversary.Corrupt(cfg.Params, cfg.Assignment.Clone(), append([]hom.Value(nil), cfg.Inputs...))
		if len(bad) > cfg.Params.T {
			return nil, engine.ErrTooManyCorrupt
		}
		for _, s := range bad {
			if s < 0 || s >= n || w.isByzantine[s] {
				return nil, engine.ErrCorruptRange
			}
			w.isByzantine[s] = true
			w.corrupted = append(w.corrupted, s)
		}
		slices.Sort(w.corrupted)
	}
	for s := range w.states {
		if w.isByzantine[s] {
			continue
		}
		if w.states[s] = cfg.NewProcess(s); w.states[s] == nil {
			return nil, engine.ErrNilProcessFactory
		}
		w.states[s].Init(engine.Context{ID: cfg.Assignment[s], Input: cfg.Inputs[s], Params: cfg.Params})
	}
	faults, err := inject.Compile(cfg.Faults, n)
	if err != nil {
		return nil, err
	}
	w.faults, w.replays = faults, faults.Schedule().Replays
	w.retained = make([][]msg.Payload, len(w.replays))
	w.res = &engine.Result{
		Params: cfg.Params, GST: w.gst, Assignment: cfg.Assignment, Inputs: cfg.Inputs,
		Corrupted: w.corrupted, Decisions: slices.Repeat([]hom.Value{hom.NoValue}, n), DecidedAt: make([]int, n),
	}
	for _, s := range faults.Culprits() {
		if !w.isByzantine[s] {
			w.res.Faulted = append(w.res.Faulted, s)
		}
	}
	return w, nil
}

// step runs one round: correct processes send, Byzantine slots send
// having seen them (a rushing adversary), the network transmits, and
// every correct process that is up receives its inbox.
func (w *world) step(round int) {
	w.round, w.res.Rounds = round, round
	w.inbox, w.log = make([][]msg.Message, w.n), nil

	sends := make([][]msg.Send, w.n)
	for s, p := range w.states {
		if p != nil && !w.halted(s) {
			sends[s] = p.Prepare(round)
		}
	}
	var byz [][]msg.TargetedSend
	if w.cfg.Adversary != nil && len(w.corrupted) > 0 {
		view := engine.NewView(w.cfg.Params, w.cfg.Assignment, w.cfg.Inputs, round, sends, w.corrupted)
		for _, s := range w.corrupted {
			byz = append(byz, w.cfg.Adversary.Sends(round, s, view))
		}
	}

	// A correct process sends to everyone or to one identifier's
	// holders, never to a chosen slot.
	for from, ss := range sends {
		for _, s := range ss {
			m := w.send(from, s.Body)
			for to := 0; to < w.n; to++ {
				if s.Kind == msg.ToAll || s.Kind == msg.ToIdentifier && w.cfg.Assignment[to] == s.To {
					w.transmit(from, to, m, false)
				}
			}
		}
	}
	// A Byzantine slot picks its recipients, one message each in the
	// restricted model.
	for i, from := range w.corrupted {
		reached := map[int]bool{}
		for _, ts := range byz[i] {
			if ts.ToSlot < 0 || ts.ToSlot >= w.n || ts.Body == nil {
				continue
			}
			if w.cfg.Params.RestrictedByzantine && reached[ts.ToSlot] {
				w.res.Stats.RestrictedViolations++
				continue
			}
			reached[ts.ToSlot] = true
			w.transmit(from, ts.ToSlot, w.send(from, ts.Body), false)
		}
	}
	for i, rp := range w.replays {
		if rp.Round == round {
			for _, body := range w.retained[i] {
				w.transmit(rp.FromSlot, rp.ToSlot, w.send(rp.FromSlot, body), false)
			}
		}
	}
	w.surface()

	for to, p := range w.states {
		if p == nil || w.halted(to) {
			continue
		}
		p.Receive(round, msg.NewInbox(w.cfg.Params.Numerate, w.inbox[to]))
		if w.res.DecidedAt[to] == 0 {
			if v, ok := p.Decision(); ok {
				w.res.Decisions[to], w.res.DecidedAt[to] = v, round
			}
		}
	}

	if w.cfg.RecordTraffic {
		w.res.Traffic = append(w.res.Traffic, w.log...)
	}
	if obs, ok := w.cfg.Adversary.(engine.Observer); ok {
		obs.Observe(round, w.log)
	}
}

// wire is a message as sent: stamped with its sender's true identifier,
// which can never be forged, and sized by its payload key.
type wire struct {
	msg.Message
	size int
}

// send stamps a payload and counts the transmission.
func (w *world) send(from int, body msg.Payload) wire {
	w.stamped++
	return wire{msg.NewMessageInterned(w.names, w.cfg.Assignment[from], body), len(body.Key())}
}

// transmit puts one message from one slot to another on the wire: a
// replay fault may capture it, a timing fault may hold it (unless it is
// a held message surfacing), and otherwise it is delivered now.
func (w *world) transmit(from, to int, m wire, surfacing bool) {
	for i, rp := range w.replays {
		if rp.FromSlot == from && rp.SourceRound == w.round && rp.ToSlot == to {
			w.retained[i] = append(w.retained[i], m.Body)
		}
	}
	if due := w.due(from, to); due > 0 && !surfacing {
		retry := 0
		if w.timing.Timeout > 0 {
			retry = w.round + w.timing.Timeout
		}
		w.pending = append(w.pending, inFlight{from: from, to: to, body: m.Body, due: due, retry: retry})
		w.res.Stats.TimingHolds++
		return
	}
	w.deliver(from, to, m)
}

// deliver applies the link conditions of §2 and the injected faults to
// one message, in order: the topology, the adversary's pre-GST drop
// (never of a self-delivery), a crash or omission, a duplication.
func (w *world) deliver(from, to int, m wire) {
	st := &w.res.Stats
	st.MessagesSent++
	if w.cfg.Visibility != nil && !w.cfg.Visibility(from, to) {
		return
	}
	adv := w.cfg.Adversary
	if from != to && adv != nil && w.cfg.Params.Synchrony == hom.PartiallySynchronous &&
		w.round < w.gst && adv.Drop(w.round, from, to) {
		st.MessagesDropped++
		return
	}
	if w.faults.Suppress(w.round, from, to) {
		st.FaultOmissions++
		return
	}
	copies := 1
	if w.faults.Dup(w.round, from, to) {
		copies = 2
	}
	for ; copies > 0; copies-- {
		st.MessagesDelivered++
		st.PayloadBytes += m.size
		w.inbox[to] = append(w.inbox[to], m.Message)
		w.log = append(w.log, msg.Delivered{Round: w.round, FromSlot: from, ToSlot: to, Msg: m.Message})
	}
}

// due is the round a message sent now from one slot to another
// surfaces in under the timing faults, or 0 when it is not held. A delay
// of By rounds lands at round+By, and "until stabilisation" (By 0) at
// max(GST, round)+Bound, which also caps every delay; a stalled
// recipient receives only once it wakes.
func (w *world) due(from, to int) int {
	due := w.round
	if by, held := w.faults.DelayBy(w.round, from, to); held {
		if due = max(w.gst, w.round) + w.timing.Bound; by > 0 {
			due = min(w.round+by, due)
		}
	}
	for w.stalled(to, due) {
		due++
	}
	if due <= w.round {
		return 0
	}
	return due
}

// surface fires the retransmit timers due this round, then delivers
// every held message whose due round has come, in the order they were
// held. A retransmission is a real transmission; its copy takes the
// link's conditions of this round and arrives now if nothing holds it.
func (w *world) surface() {
	kept := w.pending[:0]
	for _, e := range w.pending {
		if w.timing.Timeout > 0 && e.retry == w.round && e.due > w.round {
			e.attempts++
			w.res.Stats.Retransmits++
			w.stamped++
			e.retry = w.round + w.timing.Timeout<<min(e.attempts, 20)
			if w.timing.MaxAttempts > 0 && e.attempts >= w.timing.MaxAttempts {
				e.retry = 0
			}
			e.due = min(e.due, max(w.due(e.from, e.to), w.round))
		}
		if e.due != w.round {
			kept = append(kept, e)
			continue
		}
		w.transmit(e.from, e.to, w.send(e.from, e.body), true)
	}
	w.pending = kept
}

// halted reports whether a correct slot takes no step this round:
// crashed, or its round clock stalled.
func (w *world) halted(s int) bool {
	return w.faults.Down(s, w.round) || w.stalled(s, w.round)
}

// stalled reports whether a stall freezes a correct slot's clock in the
// given round; stalls end by GST.
func (w *world) stalled(s, round int) bool {
	return w.timing.Enabled && round < w.gst && !w.isByzantine[s] && w.faults.Stalled(s, round)
}

// undecided counts the correct slots without a decision.
func (w *world) undecided() (k int) {
	for s, p := range w.states {
		if p != nil && w.res.DecidedAt[s] == 0 {
			k++
		}
	}
	return k
}

// check evaluates the model's round predicate: a decision, once made,
// is kept (irrevocability).
func (w *world) check() error {
	for s, p := range w.states {
		if p == nil || w.res.DecidedAt[s] == 0 {
			continue
		}
		if v, ok := p.Decision(); !ok || v != w.res.Decisions[s] {
			return fmt.Errorf("refmodel: slot %d revoked its round-%d decision %v at round %d",
				s, w.res.DecidedAt[s], w.res.Decisions[s], w.round)
		}
	}
	return nil
}

// Hold runs the execution config describes in the interpreter, then on
// the engine under Concrete and under Counting, and describes the first
// difference ("" when the three Results agree); res is the Counting
// run's. Each run gets a fresh Config from config: an adversary may keep
// state across the rounds of one execution.
func Hold(config func() (engine.Config, error)) (res *engine.Result, diff string, err error) {
	cfg, err := config()
	if err != nil {
		return nil, "", err
	}
	want, err := Run(cfg)
	if err != nil {
		return nil, "", fmt.Errorf("refmodel: %w", err)
	}
	for _, rep := range []engine.StateRep{engine.Concrete(), engine.Counting()} {
		if cfg, err = config(); err == nil {
			res, err = engine.Run(cfg, engine.WithStateRep(rep))
		}
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", rep.Describe(), err)
		}
		if d := Diff(res, want); d != "" {
			return res, rep.Describe() + " diverges from refmodel: " + d, nil
		}
	}
	return res, "", nil
}

// Diff shows the first line of what two Results report on which got and
// want differ, and is "" when they agree on everything: the configured
// parameters, assignment and inputs, corruption and fault culprits,
// decisions and their rounds, rounds run, GST, the budget stop,
// statistics, the final class states and the traffic record, delivery
// for delivery in order.
func Diff(got, want *engine.Result) string {
	g, w := lines(got), lines(want)
	for i := range max(len(g), len(w)) {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			g, w = append(g, "(end)"), append(w, "(end)")
			return fmt.Sprintf("line %d\n got:  %s\n want: %s", i, g[min(i, len(g)-1)], w[min(i, len(w)-1)])
		}
	}
	return ""
}

// lines renders a Result one line per field and per recorded delivery.
func lines(r *engine.Result) []string {
	out := []string{
		fmt.Sprintf("Params %+v, Assignment %v, Inputs %v", r.Params, r.Assignment, r.Inputs),
		fmt.Sprintf("Corrupted %v, Faulted %v", r.Corrupted, r.Faulted),
		fmt.Sprintf("Decisions %v", r.Decisions),
		fmt.Sprintf("DecidedAt %v", r.DecidedAt),
		fmt.Sprintf("Rounds %d, GST %d, AllDecided %v, Stopped %q", r.Rounds, r.GST, r.AllDecided, r.Stopped),
		fmt.Sprintf("Stats %+v", r.Stats),
		fmt.Sprintf("Classes %v", r.Classes),
	}
	for _, d := range r.Traffic {
		out = append(out, fmt.Sprintf("Traffic r%d %d>%d %s", d.Round, d.FromSlot, d.ToSlot, d.Msg.Key()))
	}
	return out
}
