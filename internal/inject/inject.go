// Package inject is a deterministic fault-injection layer for the
// simulation engines: it extends the model's fault surface beyond
// Byzantine behaviors (package adversary) and pre-GST link drops to the
// process and link faults the crash-failure literature treats as primary
// — crash-stop, crash-recovery, send/receive omission, message
// duplication and stale replay — plus the timing faults of the
// eventually-synchronous model: per-link message delay and reorder, and
// per-process round-clock stalls (skew).
//
// A Schedule is a declarative, JSON-serialisable list of faults. The
// engine compiles it once per execution (Compile) into an Injector whose
// queries are pure functions of (round, from, to): the same schedule
// produces the same suppressed, duplicated and replayed deliveries under
// every state representation and in the reference interpreter (package
// refmodel), which is what lets the differential tests extend over
// injected faults.
//
// The faults compose freely with an adversary.Composite: Byzantine slots
// are chosen by the adversary as before, and injected faults apply to
// the remaining (correct) slots. Crash and omission faults are
// Byzantine-simulable — a Byzantine process may fall silent, resume with
// stale state, or selectively omit sends — so a protocol that claims
// correctness under t Byzantine faults must keep its claims as long as
// the Byzantine slots plus the fault culprits stay within t. Duplication
// and replay are link faults; under the restricted-Byzantine model
// (one message per recipient per round) they exceed what any Byzantine
// sender could produce, so they void claims there (the fuzzer encodes
// exactly this rule).
package inject

import (
	"errors"
	"fmt"
	"sort"
)

// Crash takes a correct slot down at the start of Round: while down, the
// process neither prepares sends nor receives messages, and everything
// addressed to it is lost. Recover > 0 brings it back after that many
// down rounds — it rejoins with its pre-crash protocol state at the
// current round number (the crash-recovery model with stable storage);
// Recover == 0 is crash-stop.
type Crash struct {
	Slot    int `json:"slot"`
	Round   int `json:"round"`
	Recover int `json:"recover,omitempty"`
}

// down reports whether the crash keeps the slot down in the given round.
func (c Crash) down(round int) bool {
	if round < c.Round {
		return false
	}
	return c.Recover == 0 || round < c.Round+c.Recover
}

// Omission makes a correct slot lose messages on its own links: Send
// omits what it sends, Receive omits what it is sent (self-deliveries
// are exempt, like adversarial drops — a process cannot lose a message
// to itself). The fault is active in rounds [From, Until] (Until == 0
// means forever). Prob in (0, 1) loses each link message independently
// with that probability, hash-derived from Seed so the decision is a
// pure function of (round, from, to); Prob outside (0, 1) loses every
// message.
type Omission struct {
	Slot    int     `json:"slot"`
	Send    bool    `json:"send,omitempty"`
	Receive bool    `json:"receive,omitempty"`
	From    int     `json:"from,omitempty"`
	Until   int     `json:"until,omitempty"`
	Prob    float64 `json:"prob,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
}

// active reports whether the omission window covers the round.
func (o Omission) active(round int) bool {
	from := o.From
	if from < 1 {
		from = 1
	}
	return round >= from && (o.Until == 0 || round <= o.Until)
}

// loses reports whether this omission loses the (round, from, to)
// delivery. Pure in its arguments — the same LinkCoin as
// adversary.RandomDrops — so batched and per-message routing agree.
func (o Omission) loses(round, from, to int) bool {
	if !o.active(round) || from == to {
		return false
	}
	if !(o.Send && o.Slot == from) && !(o.Receive && o.Slot == to) {
		return false
	}
	if o.Prob <= 0 || o.Prob >= 1 {
		return true
	}
	return LinkCoin(o.Seed, round, from, to) < o.Prob
}

// Duplicate delivers the message from FromSlot to ToSlot twice in the
// given round (both copies adjacent, same payload, same identifier) — a
// link-level duplication fault. Against numerate receivers the second
// copy inflates multiplicity counts beyond what the restricted model
// allows any sender.
type Duplicate struct {
	FromSlot int `json:"from_slot"`
	ToSlot   int `json:"to_slot"`
	Round    int `json:"round"`
}

// Replay re-delivers, in round Round, the messages FromSlot sent in
// SourceRound to ToSlot — a stale message surfacing late, stamped with
// FromSlot's true identifier (links cannot forge). Round must be after
// SourceRound.
type Replay struct {
	FromSlot    int `json:"from_slot"`
	SourceRound int `json:"source_round"`
	Round       int `json:"round"`
	ToSlot      int `json:"to_slot"`
}

// Delay is a timing fault on the FromSlot -> ToSlot link: messages sent
// in rounds [From, Until] (Until == 0 means forever) are held in the
// engine's pending queue and delivered By rounds late. By == 0 means
// "held until stabilization" — the eventually-synchronous time model
// delivers such messages at GST plus its delay bound. The model also
// clamps every delay so that messages sent at or after GST arrive
// within the bound (that is the "eventually synchronous" guarantee);
// schedules only choose behavior inside the window the model allows.
// Prob in (0, 1) delays each link message independently with that
// probability, hash-derived from Seed so the decision is a pure
// function of (round, from, to); Prob outside (0, 1) delays every
// message in the window. Timing faults require a timing-capable time
// model (engine.EventuallySynchronous); the lockstep model rejects
// them at construction.
type Delay struct {
	FromSlot int     `json:"from_slot"`
	ToSlot   int     `json:"to_slot"`
	From     int     `json:"from,omitempty"`
	Until    int     `json:"until,omitempty"`
	By       int     `json:"by,omitempty"`
	Prob     float64 `json:"prob,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

// active reports whether the delay window covers the send round.
func (d Delay) active(round int) bool {
	from := d.From
	if from < 1 {
		from = 1
	}
	return round >= from && (d.Until == 0 || round <= d.Until)
}

// holds reports whether this delay holds the (round, from, to)
// delivery. Pure in its arguments, same LinkCoin as Omission.
func (d Delay) holds(round, from, to int) bool {
	if !d.active(round) || from == to {
		return false
	}
	if d.FromSlot != from || d.ToSlot != to {
		return false
	}
	if d.Prob <= 0 || d.Prob >= 1 {
		return true
	}
	return LinkCoin(d.Seed, round, from, to) < d.Prob
}

// Reorder is a one-round overtake on the FromSlot -> ToSlot link: the
// messages sent in the given round are held and delivered after the
// next round's fresh traffic, so newer messages overtake older ones.
// Equivalent to a Delay with By == 1 covering a single round; kept as
// its own kind so schedules (and the fuzzer's shrinker) can express
// plain reordering without touching delay windows.
type Reorder struct {
	FromSlot int `json:"from_slot"`
	ToSlot   int `json:"to_slot"`
	Round    int `json:"round"`
}

// Stall freezes a correct slot's round clock for Rounds rounds starting
// at Round — the per-process skew of the eventually-synchronous model.
// While stalled the process takes no step (it neither prepares sends
// nor receives), but unlike a crash its inbound messages are not lost:
// the engine holds them and delivers them when the slot wakes. The
// model clamps every stall to end by GST (bounded skew after
// stabilization).
type Stall struct {
	Slot   int `json:"slot"`
	Round  int `json:"round"`
	Rounds int `json:"rounds"`
}

// covers reports whether the stall freezes the slot in the given round.
func (s Stall) covers(round int) bool {
	return round >= s.Round && round < s.Round+s.Rounds
}

// Schedule is a declarative fault schedule: the JSON form is embedded in
// fuzz scenarios and regression seeds. The zero value (and nil) injects
// nothing.
type Schedule struct {
	Crashes    []Crash     `json:"crashes,omitempty"`
	Omissions  []Omission  `json:"omissions,omitempty"`
	Duplicates []Duplicate `json:"duplicates,omitempty"`
	Replays    []Replay    `json:"replays,omitempty"`
	Delays     []Delay     `json:"delays,omitempty"`
	Reorders   []Reorder   `json:"reorders,omitempty"`
	Stalls     []Stall     `json:"stalls,omitempty"`
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool {
	return s == nil ||
		len(s.Crashes) == 0 && len(s.Omissions) == 0 &&
			len(s.Duplicates) == 0 && len(s.Replays) == 0 &&
			!s.HasTiming()
}

// HasTiming reports whether the schedule contains timing faults
// (delays, reorders or stalls), which require a timing-capable time
// model.
func (s *Schedule) HasTiming() bool {
	return s != nil &&
		(len(s.Delays) > 0 || len(s.Reorders) > 0 || len(s.Stalls) > 0)
}

// Culprits returns the sorted distinct slots named as a fault source by
// the schedule: crashed and omitting slots, and the senders whose
// messages are duplicated or replayed (their identifier's traffic is no
// longer what the holders produced). Harnesses treat culprits like
// Byzantine slots when deciding whether a protocol's claims survive the
// schedule.
func (s *Schedule) Culprits() []int {
	if s == nil {
		return nil
	}
	seen := map[int]bool{}
	for _, c := range s.Crashes {
		seen[c.Slot] = true
	}
	for _, o := range s.Omissions {
		seen[o.Slot] = true
	}
	for _, d := range s.Duplicates {
		seen[d.FromSlot] = true
	}
	for _, r := range s.Replays {
		seen[r.FromSlot] = true
	}
	for _, d := range s.Delays {
		seen[d.FromSlot] = true
	}
	for _, r := range s.Reorders {
		seen[r.FromSlot] = true
	}
	for _, st := range s.Stalls {
		seen[st.Slot] = true
	}
	out := make([]int, 0, len(seen))
	for slot := range seen {
		out = append(out, slot)
	}
	sort.Ints(out)
	return out
}

// Validation errors.
var (
	ErrSlotRange   = errors.New("inject: fault slot out of range")
	ErrRoundRange  = errors.New("inject: fault round must be >= 1")
	ErrProbRange   = errors.New("inject: omission probability must be in [0, 1)")
	ErrReplayOrder = errors.New("inject: replay round must be after its source round")
)

// Kind names a family of faults that share one activity window: the
// rounds in which the family's queries can answer anything but "no".
type Kind uint8

const (
	// KindLoss covers crashes, omissions and duplications — the Down,
	// Suppress and Dup queries. Its window ends with the last round one
	// of them can fire.
	KindLoss Kind = iota
	// KindHold covers delays and reorders — the DelayBy query. Its window
	// ends with the last send round a hold can start in (when the held
	// message surfaces is the time model's business, not the window's).
	KindHold
	// KindStall covers round-clock stalls — the Stalled query. Its window
	// ends with the last stalled round.
	KindStall
	// KindReplay covers replays — NeedRetain and ReplaysInto. Its window
	// ends with the last round a replay delivers into.
	KindReplay
	numKinds
)

// endpoint holds the faults that name one slot, in schedule order: the
// process faults on the slot itself and the link faults on the links
// leaving it. A link query consults at most the two endpoints of its
// link, never the whole schedule.
type endpoint struct {
	crashes   []Crash     // Slot == this slot
	omissions []Omission  // Slot == this slot
	stalls    []Stall     // Slot == this slot
	dups      []Duplicate // FromSlot == this slot
	delays    []Delay     // FromSlot == this slot
	reorders  []Reorder   // FromSlot == this slot
	replays   []Replay    // FromSlot == this slot
}

// Injector is a compiled schedule: every query is a pure function of its
// arguments, so the state representations and the reference interpreter
// observe identical faults. A nil *Injector injects nothing
// and every method is safe to call on it.
//
// Compile indexes the schedule by the slots it names (O(faults) memory,
// independent of n) and derives one activity window per Kind, so a
// query outside its kind's window costs one comparison and a query
// inside it scans only the faults naming that endpoint.
type Injector struct {
	sched    Schedule
	culprits []int
	by       map[int]*endpoint
	// last is, per Kind, the last round of the kind's window: 0 when the
	// schedule has no fault of the kind, -1 when the window never closes
	// (a crash-stop, an open omission or delay window).
	last [numKinds]int
}

// at returns the slot's endpoint record, creating it on first use.
func (in *Injector) at(slot int) *endpoint {
	ep := in.by[slot]
	if ep == nil {
		ep = &endpoint{}
		in.by[slot] = ep
	}
	return ep
}

// extend widens the kind's window to cover round; open marks it as
// never closing.
func (in *Injector) extend(k Kind, round int, open bool) {
	switch {
	case open:
		in.last[k] = -1
	case in.last[k] >= 0 && round > in.last[k]:
		in.last[k] = round
	}
}

// Compile validates the schedule against the execution's slot count and
// returns its injector. A nil or empty schedule compiles to a nil
// injector.
func Compile(s *Schedule, n int) (*Injector, error) {
	if s.Empty() {
		return nil, nil
	}
	in := &Injector{sched: *s, culprits: s.Culprits(), by: make(map[int]*endpoint)}
	for _, c := range s.Crashes {
		if c.Slot < 0 || c.Slot >= n {
			return nil, fmt.Errorf("%w (crash slot %d, n=%d)", ErrSlotRange, c.Slot, n)
		}
		if c.Round < 1 || c.Recover < 0 {
			return nil, fmt.Errorf("%w (crash at round %d, recover %d)", ErrRoundRange, c.Round, c.Recover)
		}
		ep := in.at(c.Slot)
		ep.crashes = append(ep.crashes, c)
		in.extend(KindLoss, c.Round+c.Recover-1, c.Recover == 0)
	}
	for _, o := range s.Omissions {
		if o.Slot < 0 || o.Slot >= n {
			return nil, fmt.Errorf("%w (omission slot %d, n=%d)", ErrSlotRange, o.Slot, n)
		}
		if o.Prob < 0 || o.Prob >= 1 {
			return nil, fmt.Errorf("%w (prob %v)", ErrProbRange, o.Prob)
		}
		ep := in.at(o.Slot)
		ep.omissions = append(ep.omissions, o)
		in.extend(KindLoss, o.Until, o.Until == 0)
	}
	for _, d := range s.Duplicates {
		if d.FromSlot < 0 || d.FromSlot >= n || d.ToSlot < 0 || d.ToSlot >= n {
			return nil, fmt.Errorf("%w (duplicate %d->%d, n=%d)", ErrSlotRange, d.FromSlot, d.ToSlot, n)
		}
		if d.Round < 1 {
			return nil, fmt.Errorf("%w (duplicate at round %d)", ErrRoundRange, d.Round)
		}
		ep := in.at(d.FromSlot)
		ep.dups = append(ep.dups, d)
		in.extend(KindLoss, d.Round, false)
	}
	for _, r := range s.Replays {
		if r.FromSlot < 0 || r.FromSlot >= n || r.ToSlot < 0 || r.ToSlot >= n {
			return nil, fmt.Errorf("%w (replay %d->%d, n=%d)", ErrSlotRange, r.FromSlot, r.ToSlot, n)
		}
		if r.SourceRound < 1 {
			return nil, fmt.Errorf("%w (replay source round %d)", ErrRoundRange, r.SourceRound)
		}
		if r.Round <= r.SourceRound {
			return nil, fmt.Errorf("%w (source %d, replay %d)", ErrReplayOrder, r.SourceRound, r.Round)
		}
		ep := in.at(r.FromSlot)
		ep.replays = append(ep.replays, r)
		in.extend(KindReplay, r.Round, false)
	}
	for _, d := range s.Delays {
		if d.FromSlot < 0 || d.FromSlot >= n || d.ToSlot < 0 || d.ToSlot >= n {
			return nil, fmt.Errorf("%w (delay %d->%d, n=%d)", ErrSlotRange, d.FromSlot, d.ToSlot, n)
		}
		if d.By < 0 || d.From < 0 || d.Until < 0 {
			return nil, fmt.Errorf("%w (delay by %d, window [%d, %d])", ErrRoundRange, d.By, d.From, d.Until)
		}
		if d.Prob < 0 || d.Prob >= 1 {
			return nil, fmt.Errorf("%w (delay prob %v)", ErrProbRange, d.Prob)
		}
		ep := in.at(d.FromSlot)
		ep.delays = append(ep.delays, d)
		in.extend(KindHold, d.Until, d.Until == 0)
	}
	for _, r := range s.Reorders {
		if r.FromSlot < 0 || r.FromSlot >= n || r.ToSlot < 0 || r.ToSlot >= n {
			return nil, fmt.Errorf("%w (reorder %d->%d, n=%d)", ErrSlotRange, r.FromSlot, r.ToSlot, n)
		}
		if r.Round < 1 {
			return nil, fmt.Errorf("%w (reorder at round %d)", ErrRoundRange, r.Round)
		}
		ep := in.at(r.FromSlot)
		ep.reorders = append(ep.reorders, r)
		in.extend(KindHold, r.Round, false)
	}
	for _, st := range s.Stalls {
		if st.Slot < 0 || st.Slot >= n {
			return nil, fmt.Errorf("%w (stall slot %d, n=%d)", ErrSlotRange, st.Slot, n)
		}
		if st.Round < 1 || st.Rounds < 1 {
			return nil, fmt.Errorf("%w (stall at round %d for %d rounds)", ErrRoundRange, st.Round, st.Rounds)
		}
		ep := in.at(st.Slot)
		ep.stalls = append(ep.stalls, st)
		in.extend(KindStall, st.Round+st.Rounds-1, false)
	}
	return in, nil
}

// Schedule returns a copy of the compiled schedule.
func (in *Injector) Schedule() Schedule {
	if in == nil {
		return Schedule{}
	}
	return in.sched
}

// Culprits returns the schedule's sorted fault-source slots (see
// Schedule.Culprits).
func (in *Injector) Culprits() []int {
	if in == nil {
		return nil
	}
	return in.culprits
}

// Live reports whether the round lies inside the kind's activity
// window, i.e. whether any query of that kind can still answer other
// than "no". Engines ask once per round and keep rounds no window
// covers on their cheapest path (the group-shared reception's
// trivial-mask sharing, a counting class sending once for all its
// members): a held-until-stabilisation delay keeps only the KindHold
// window open, and only through its last send round.
func (in *Injector) Live(k Kind, round int) bool {
	if in == nil {
		return false
	}
	return in.last[k] < 0 || round <= in.last[k]
}

// Down reports whether the slot is crashed in the given round.
func (in *Injector) Down(slot, round int) bool {
	if !in.Live(KindLoss, round) {
		return false
	}
	if ep := in.by[slot]; ep != nil {
		for _, c := range ep.crashes {
			if c.down(round) {
				return true
			}
		}
	}
	return false
}

// Suppress reports whether the (round, from, to) delivery is lost to a
// fault: the recipient is down, or a send/receive omission on either
// endpoint loses it. Pure in its arguments.
func (in *Injector) Suppress(round, from, to int) bool {
	if !in.Live(KindLoss, round) {
		return false
	}
	if in.Down(to, round) {
		return true
	}
	// An omission names one slot and loses only links that slot ends, so
	// the two endpoints' lists are every candidate; loses re-checks the
	// side (Send on from, Receive on to) ahead of its coin.
	for _, slot := range [2]int{from, to} {
		if ep := in.by[slot]; ep != nil {
			for _, o := range ep.omissions {
				if o.loses(round, from, to) {
					return true
				}
			}
		}
	}
	return false
}

// Dup reports whether the (round, from, to) delivery is duplicated.
// Pure in its arguments.
func (in *Injector) Dup(round, from, to int) bool {
	if !in.Live(KindLoss, round) {
		return false
	}
	if ep := in.by[from]; ep != nil {
		for _, d := range ep.dups {
			if d.Round == round && d.ToSlot == to {
				return true
			}
		}
	}
	return false
}

// NeedRetain reports whether some replay needs the sends of the given
// slot in the given round retained for later re-delivery.
func (in *Injector) NeedRetain(slot, round int) bool {
	if !in.Live(KindReplay, round) {
		return false
	}
	if ep := in.by[slot]; ep != nil {
		for _, r := range ep.replays {
			if r.SourceRound == round {
				return true
			}
		}
	}
	return false
}

// ReplaysInto returns the indices (into Schedule().Replays) of the
// replays that deliver into the given round, in their schedule order —
// deterministic, so every executor stamps replayed messages
// identically.
func (in *Injector) ReplaysInto(round int) []int {
	if !in.Live(KindReplay, round) {
		return nil
	}
	var out []int
	for i, r := range in.sched.Replays {
		if r.Round == round {
			out = append(out, i)
		}
	}
	return out
}

// HasTiming reports whether the compiled schedule contains timing
// faults (see Schedule.HasTiming).
func (in *Injector) HasTiming() bool {
	if in == nil {
		return false
	}
	return in.sched.HasTiming()
}

// DelayBy reports whether a delay or reorder fault holds the
// (round, from, to) delivery at its send round, and by how many rounds.
// held with by == 0 means "until stabilization" — the time model
// resolves it to GST plus its delay bound. When several faults match,
// until-stabilization dominates, otherwise the largest By wins. Pure in
// its arguments.
func (in *Injector) DelayBy(round, from, to int) (by int, held bool) {
	if !in.Live(KindHold, round) {
		return 0, false
	}
	ep := in.by[from]
	if ep == nil {
		return 0, false
	}
	for _, d := range ep.delays {
		if d.holds(round, from, to) {
			held = true
			if d.By <= 0 {
				return 0, true
			}
			if d.By > by {
				by = d.By
			}
		}
	}
	for _, r := range ep.reorders {
		if r.Round == round && r.ToSlot == to && from != to {
			held = true
			if by < 1 {
				by = 1
			}
		}
	}
	return by, held
}

// Stalled reports whether a stall freezes the slot's round clock in the
// given round, before the model's GST clamp (the engine enforces that
// stalls end by GST). Pure in its arguments.
func (in *Injector) Stalled(slot, round int) bool {
	if !in.Live(KindStall, round) {
		return false
	}
	if ep := in.by[slot]; ep != nil {
		for _, s := range ep.stalls {
			if s.covers(round) {
				return true
			}
		}
	}
	return false
}

// Simulable reports whether the schedule stays within what a Byzantine
// adversary could have produced by corrupting the culprit slots:
// crashes and omissions always are; duplication and replay exceed the
// restricted-Byzantine per-round budget, so they are simulable only in
// the unrestricted model. Timing faults (delay, reorder, stall) make a
// held message surface alongside the culprit's fresh same-round
// traffic, which likewise exceeds the restricted
// one-message-per-recipient-per-round budget; in the unrestricted
// model a Byzantine culprit may send anything at any time, so they are
// simulable there. The reason names the first obstruction.
func (s *Schedule) Simulable(restricted bool) (bool, string) {
	if s.Empty() {
		return true, "no faults"
	}
	if restricted && (len(s.Duplicates) > 0 || len(s.Replays) > 0) {
		return false, "duplication/replay exceeds the restricted one-message-per-recipient-per-round budget"
	}
	if restricted && s.HasTiming() {
		return false, "delayed deliveries alongside fresh traffic exceed the restricted one-message-per-recipient-per-round budget"
	}
	if s.HasTiming() {
		return true, "timing faults are Byzantine-simulable by corrupting the culprit slots (late or withheld sends)"
	}
	return true, "crash/omission faults are Byzantine-simulable by corrupting the culprit slots"
}
