package engine

import (
	"slices"
	"testing"

	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
)

// routerHarness assembles a Router over a hand-built config and drives
// one round of all-to-all broadcast through it, so the classifier's
// decisions can be inspected directly via SharedWith.
type routerHarness struct {
	cfg    Config
	isBad  []bool
	stats  Stats
	intern *msg.Interner
	r      *Router
}

func newRouterHarness(t *testing.T, cfg Config, corrupted []int) *routerHarness {
	t.Helper()
	h := &routerHarness{cfg: cfg, isBad: make([]bool, cfg.Params.N)}
	for _, s := range corrupted {
		h.isBad[s] = true
	}
	h.intern = msg.NewInterner()
	h.r = newRouter(&h.cfg, h.isBad, &h.stats, h.intern, cfg.RecordTraffic, nil)
	return h
}

// broadcastRound runs one round in which every correct slot broadcasts
// one distinct payload, plus the given Byzantine targeted sends.
func (h *routerHarness) broadcastRound(round int, byz map[int][]msg.TargetedSend) {
	h.route(round, byz)
	h.r.flush()
}

// route opens and routes broadcastRound's round, leaving it unflushed.
func (h *routerHarness) route(round int, byz map[int][]msg.TargetedSend) {
	h.r.beginRound(round)
	for s := 0; s < h.cfg.Params.N; s++ {
		if h.isBad[s] {
			continue
		}
		h.r.routeCorrect(s, 1, []msg.Send{msg.Broadcast(msg.Raw("b|" + itoaTest(s)))})
	}
	for s, sends := range byz {
		h.r.routeByzantine(s, sends)
	}
}

// flushPerRecipient completes a routed round as flush does, except that
// every slot fills its own batch (flushOwn): no reception classes, no
// shared inboxes — the twin the classifier is held to.
func (h *routerHarness) flushPerRecipient() {
	r := h.r
	if r.replayRound {
		r.injectReplays()
	}
	if r.timing && r.pq.Len() > 0 {
		r.pumpPending()
	}
	r.flat = false
	r.stage()
	r.resetRecord()
	for to := 0; to < r.n; to++ {
		r.flushOwn(to)
	}
	r.buildRecord()
}

func itoaTest(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// inboxFingerprint renders everything observable about an inbox.
func inboxFingerprint(in *msg.Inbox) string {
	s := itoaTest(in.Len()) + "/" + itoaTest(in.TotalCount())
	for i, k := 0, in.Len(); i < k; i++ {
		s += "|" + itoaTest(int(in.SenderAt(i))) + ":" + itoaTest(in.CountAt(i)) + ":" + in.MessageAt(i).Key()
	}
	return s
}

// drainInboxes fingerprints and recycles every correct slot's inbox
// (mirroring the engines' per-round reception), returning the
// fingerprints by slot.
func (h *routerHarness) drainInboxes() []string {
	out := make([]string, h.cfg.Params.N)
	boxes := make([]*msg.Inbox, h.cfg.Params.N)
	for s := 0; s < h.cfg.Params.N; s++ {
		if h.isBad[s] {
			continue
		}
		boxes[s] = h.r.inbox(s)
		out[s] = inboxFingerprint(boxes[s])
	}
	for _, in := range boxes {
		if in != nil {
			in.Recycle()
		}
	}
	return out
}

func symmetricConfig(n, l int) Config {
	return Config{
		Params:     hom.Params{N: n, L: l, T: 1, Synchrony: hom.Synchronous},
		Assignment: hom.RoundRobinAssignment(n, l),
	}
}

// TestClassifierSymmetricRoundSharesPerGroup pins the headline case: in
// an identifier-symmetric all-to-all round with no masks, every
// identifier group's correct members share their group's first member's
// fill — n inbox fills become l.
func TestClassifierSymmetricRoundSharesPerGroup(t *testing.T) {
	const n, l = 12, 4
	h := newRouterHarness(t, symmetricConfig(n, l), nil)
	h.broadcastRound(1, nil)

	groups := h.cfg.Assignment.Groups(l)
	for id, members := range groups {
		rep := members[0]
		for _, m := range members {
			if got := h.r.SharedWith(m); got != rep {
				t.Errorf("identifier %d slot %d: SharedWith = %d, want %d", id, m, got, rep)
			}
		}
	}
	fp := h.drainInboxes()
	for _, members := range groups {
		for _, m := range members[1:] {
			if fp[m] != fp[members[0]] {
				t.Errorf("slot %d inbox diverges from its representative", m)
			}
		}
	}
}

// TestClassifierByzantineMemberExcluded pins the corruption rule: a
// Byzantine slot inside a group is not part of any reception class (it
// receives no inbox), and the remaining correct members still share.
func TestClassifierByzantineMemberExcluded(t *testing.T) {
	const n, l = 12, 4
	// Slot 0 holds identifier 1 together with slots 4 and 8; corrupt it.
	h := newRouterHarness(t, symmetricConfig(n, l), []int{0})
	h.broadcastRound(1, nil)

	if got := h.r.SharedWith(0); got != -1 {
		t.Fatalf("corrupted slot 0 classified into class %d", got)
	}
	// The group's correct members (4, 8) share, with 4 as representative.
	if h.r.SharedWith(4) != 4 || h.r.SharedWith(8) != 4 {
		t.Fatalf("correct homonyms of a corrupted slot do not share: %d, %d",
			h.r.SharedWith(4), h.r.SharedWith(8))
	}
}

// TestClassifierTargetedSendDiverges pins the batch-divergence rule: a
// Byzantine targeted send to one group member gives that member a
// different candidate batch, so it falls back to its own fill while the
// untouched members keep sharing.
func TestClassifierTargetedSendDiverges(t *testing.T) {
	const n, l = 12, 4
	h := newRouterHarness(t, symmetricConfig(n, l), []int{3})
	// Identifier 1's correct members are 0, 4, 8. Target only slot 4.
	h.broadcastRound(1, map[int][]msg.TargetedSend{
		3: {{ToSlot: 4, Body: msg.Raw("poison")}},
	})

	if got := h.r.SharedWith(4); got != -1 {
		t.Fatalf("targeted slot 4 still classified into class %d", got)
	}
	if h.r.SharedWith(0) != 0 || h.r.SharedWith(8) != 0 {
		t.Fatalf("untouched homonyms stopped sharing: %d, %d",
			h.r.SharedWith(0), h.r.SharedWith(8))
	}
	// Targeted sends to every member with byte-identical bodies are
	// distinct stamped sends, but the classifier compares batches at the
	// key level when no mask or record is in play: equal (sender, key)
	// sequences mean provably identical inbox contents and statistics,
	// so the group re-unifies instead of splitting forever.
	h.broadcastRound(2, map[int][]msg.TargetedSend{
		3: {
			{ToSlot: 0, Body: msg.Raw("same")},
			{ToSlot: 4, Body: msg.Raw("same")},
			{ToSlot: 8, Body: msg.Raw("same")},
		},
	})
	if h.r.SharedWith(0) != 0 || h.r.SharedWith(4) != 0 || h.r.SharedWith(8) != 0 {
		t.Fatalf("equal-keyed targeted members not re-unified: %d, %d, %d",
			h.r.SharedWith(0), h.r.SharedWith(4), h.r.SharedWith(8))
	}
	// An untouched group (identifier 2: slots 1, 5, 9) keeps sharing.
	if h.r.SharedWith(1) != 1 || h.r.SharedWith(5) != 1 || h.r.SharedWith(9) != 1 {
		t.Fatalf("untouched group stopped sharing: %d, %d, %d",
			h.r.SharedWith(1), h.r.SharedWith(5), h.r.SharedWith(9))
	}
	// Distinct bodies still diverge: the touched member falls back to
	// its own fill while the rest of the group keeps sharing.
	h.broadcastRound(3, map[int][]msg.TargetedSend{
		3: {
			{ToSlot: 0, Body: msg.Raw("same")},
			{ToSlot: 4, Body: msg.Raw("different")},
			{ToSlot: 8, Body: msg.Raw("same")},
		},
	})
	if got := h.r.SharedWith(4); got != -1 {
		t.Fatalf("distinct-keyed targeted slot 4 still classified into class %d", got)
	}
	if h.r.SharedWith(0) != 0 || h.r.SharedWith(8) != 0 {
		t.Fatalf("equal-keyed members stopped sharing: %d, %d",
			h.r.SharedWith(0), h.r.SharedWith(8))
	}
}

// maskOneSlot drops everything inbound to a single slot.
type maskOneSlot struct{ victim int }

func (m maskOneSlot) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int { return nil }
func (m maskOneSlot) Sends(int, int, *View) []msg.TargetedSend              { return nil }
func (m maskOneSlot) Drop(_, from, to int) bool                             { return to == m.victim && from != to }

// TestClassifierMaskDivergenceAndGST pins the pre/post-GST transition:
// before GST a drop mask that singles out one group member forces that
// member onto its own fill; from GST on the mask is void, the batches
// realign, and the whole group shares again.
func TestClassifierMaskDivergenceAndGST(t *testing.T) {
	const n, l = 12, 4
	cfg := symmetricConfig(n, l)
	cfg.Params.Synchrony = hom.PartiallySynchronous
	cfg.GST = 3
	cfg.Adversary = maskOneSlot{victim: 4}
	h := newRouterHarness(t, cfg, nil)

	// Round 1 (< GST): slot 4's inbound mask diverges from its homonyms.
	h.broadcastRound(1, nil)
	if got := h.r.SharedWith(4); got != -1 {
		t.Fatalf("pre-GST masked slot 4 still classified into class %d", got)
	}
	if h.r.SharedWith(0) != 0 || h.r.SharedWith(8) != 0 {
		t.Fatalf("unmasked homonyms stopped sharing pre-GST: %d, %d",
			h.r.SharedWith(0), h.r.SharedWith(8))
	}
	fp := h.drainInboxes()
	if fp[4] == fp[0] {
		t.Fatal("masked slot's inbox should differ pre-GST")
	}

	// Round 3 (>= GST): drops are void, the group realigns.
	h.broadcastRound(3, nil)
	if h.r.SharedWith(0) != 0 || h.r.SharedWith(4) != 0 || h.r.SharedWith(8) != 0 {
		t.Fatalf("post-GST group does not share: %d, %d, %d",
			h.r.SharedWith(0), h.r.SharedWith(4), h.r.SharedWith(8))
	}
	fp = h.drainInboxes()
	if fp[4] != fp[0] {
		t.Fatal("post-GST inboxes should be identical")
	}
}

// TestClassifierVisibilityDivergence pins the visibility half of the
// mask rule: a topology restriction that blinds one member to one
// sender de-classifies exactly that member.
func TestClassifierVisibilityDivergence(t *testing.T) {
	const n, l = 12, 4
	cfg := symmetricConfig(n, l)
	cfg.Visibility = func(from, to int) bool { return !(to == 8 && from == 1) }
	h := newRouterHarness(t, cfg, nil)
	h.broadcastRound(1, nil)

	if got := h.r.SharedWith(8); got != -1 {
		t.Fatalf("visibility-restricted slot 8 still classified into class %d", got)
	}
	if h.r.SharedWith(0) != 0 || h.r.SharedWith(4) != 0 {
		t.Fatalf("unrestricted homonyms stopped sharing: %d, %d",
			h.r.SharedWith(0), h.r.SharedWith(4))
	}
}

// scratchPayload is a ScratchKeyer test payload: stamping it interns
// from router scratch, so re-sending a known key allocates nothing.
type scratchPayload int

func (p scratchPayload) BuildKey(kb *msg.KeyBuilder) { kb.Reset("s").Int(int(p)) }
func (p scratchPayload) Key() string                 { return msg.ScratchKey(p) }

// TestClosedWindowsCostNothing: once every fault kind's window has
// closed, a round's routing runs with all link-condition stages off and
// allocates nothing — including under a held-until-stabilisation
// (By 0) delay, which used to keep the injector on the path of every
// message of every later round.
func TestClosedWindowsCostNothing(t *testing.T) {
	const n, l = 8, 4
	cfg := symmetricConfig(n, l)
	cfg.Params.Synchrony = hom.PartiallySynchronous
	cfg.GST = 3
	inj, err := inject.Compile(&inject.Schedule{
		Crashes:   []inject.Crash{{Slot: 1, Round: 1, Recover: 1}},
		Omissions: []inject.Omission{{Slot: 2, Send: true, From: 1, Until: 2, Prob: 0.5, Seed: 3}},
		Delays:    []inject.Delay{{FromSlot: 0, ToSlot: 5, From: 1, Until: 2}}, // By 0
		Stalls:    []inject.Stall{{Slot: 6, Round: 2, Rounds: 1}},
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	r := newRouter(&cfg, make([]bool, n), &stats, msg.NewInterner(), false, inj)
	r.enableTiming(TimingPolicy{Enabled: true, Bound: 1})

	sends := make([][]msg.Send, n)
	for s := range sends {
		for k := 0; k < 3; k++ {
			sends[s] = append(sends[s], msg.Broadcast(scratchPayload(3*s+k)))
		}
	}
	routeRound := func(round int) {
		r.beginRound(round)
		for s := 0; s < n; s++ {
			r.routeCorrect(s, 1, sends[s])
		}
		r.flush()
	}
	// Rounds 1-2 run the faults; by round 4 the held copies have drained
	// (GST 3 + Bound 1) and every scratch buffer has reached its size.
	for round := 1; round <= 5; round++ {
		routeRound(round)
	}
	if stats.TimingHolds == 0 || stats.FaultOmissions == 0 {
		t.Fatalf("the schedule must have fired before its windows closed: %+v", stats)
	}
	round := 6
	allocs := testing.AllocsPerRun(20, func() {
		routeRound(round)
		round++
	})
	if r.lossRound || r.holdRound || r.stallRound || r.replayRound {
		t.Errorf("a link-condition stage is still on after every window closed: loss=%v hold=%v stall=%v replay=%v",
			r.lossRound, r.holdRound, r.stallRound, r.replayRound)
	}
	if allocs != 0 {
		t.Errorf("routing a round after every window closed allocates %v times, want 0", allocs)
	}
}

// TestRouterPartitionIsComplete pins the reception classifier as a
// complete partition. Over generated rounds — every correct slot
// broadcasts, one Byzantine slot hands each identifier group k distinct
// targeted variants (each variant stamped separately per member, so
// equal batches differ in arena indices) — with and without pre-GST
// drops, a visibility restriction and a loss window, two correct slots
// of one group report the same SharedWith class exactly when the batches
// a second router delivers them, flushing every slot on its own, are
// equal; and every inbox and the statistics match that router's.
func TestRouterPartitionIsComplete(t *testing.T) {
	const n, l, bad = 26, 4, 3
	masks := []struct {
		name string
		set  func(cfg *Config) *inject.Schedule
	}{
		{"clean", func(*Config) *inject.Schedule { return nil }},
		{"drops", func(cfg *Config) *inject.Schedule {
			cfg.Params.Synchrony, cfg.GST = hom.PartiallySynchronous, 100
			cfg.Adversary = SeededMask{Seed: 7, Modulus: 9}
			return nil
		}},
		{"visibility", func(cfg *Config) *inject.Schedule {
			vis := SeededMask{Seed: 11, Modulus: 13}
			cfg.Visibility = func(from, to int) bool { return !vis.Hit(0, from, to) }
			return nil
		}},
		{"loss", func(*Config) *inject.Schedule {
			return &inject.Schedule{
				Omissions:  []inject.Omission{{Slot: 5, Receive: true, From: 1, Until: 9, Prob: 0.5, Seed: 3}},
				Duplicates: []inject.Duplicate{{FromSlot: 2, ToSlot: 9, Round: 2}, {FromSlot: 2, ToSlot: 13, Round: 2}},
				Replays:    []inject.Replay{{FromSlot: 6, SourceRound: 1, ToSlot: 10, Round: 3}},
			}
		}},
	}
	for _, mask := range masks {
		for _, k := range []int{1, 2, 5} {
			t.Run(mask.name+"/k="+itoaTest(k), func(t *testing.T) {
				build := func() *routerHarness {
					cfg := symmetricConfig(n, l)
					sched := mask.set(&cfg)
					h := &routerHarness{cfg: cfg, isBad: make([]bool, n), intern: msg.NewInterner()}
					h.isBad[bad] = true
					inj, err := inject.Compile(sched, n)
					if err != nil {
						t.Fatal(err)
					}
					h.r = newRouter(&h.cfg, h.isBad, &h.stats, h.intern, false, inj)
					return h
				}
				shared, own := build(), build()
				for round := 1; round <= 4; round++ {
					var byz []msg.TargetedSend
					for to := 0; to < n; to++ {
						variant := (to/l + round) % k // to/l: the slot's rank in its round-robin group
						byz = append(byz, msg.TargetedSend{ToSlot: to, Body: msg.Raw("v|" + itoaTest(variant))})
					}
					shared.broadcastRound(round, map[int][]msg.TargetedSend{bad: byz})
					own.route(round, map[int][]msg.TargetedSend{bad: byz})
					own.flushPerRecipient()
					// The per-recipient router's delivered batches, as KeyID
					// sequences: the ground truth the partition is held to.
					batch := make([]string, n)
					for s := range batch {
						for _, si := range own.r.slots.rawIdx[s] {
							batch[s] += itoaTest(int(own.r.arena.KID(si))) + ","
						}
					}
					classes := 0
					for a := 0; a < n; a++ {
						if a == bad {
							continue
						}
						ca := shared.r.SharedWith(a)
						if ca == a {
							classes++
						}
						for b := a + l; b < n; b += l { // a's homonyms
							if b == bad {
								continue
							}
							same := ca >= 0 && ca == shared.r.SharedWith(b)
							if equal := batch[a] == batch[b]; same != equal {
								t.Errorf("round %d slots %d,%d: same class %v, equal batches %v", round, a, b, same, equal)
							}
						}
					}
					holders := make(map[string]int) // (group, batch) -> correct slots holding it
					for s := range batch {
						if s != bad {
							holders[itoaTest(s%l)+"|"+batch[s]]++
						}
					}
					want := 0
					for _, c := range holders {
						if c > 1 {
							want++
						}
					}
					if classes != want {
						t.Errorf("round %d: %d shared classes, want one per batch held twice in a group: %d", round, classes, want)
					}
					got, ownIn := shared.drainInboxes(), own.drainInboxes()
					for s := range got {
						if got[s] != ownIn[s] {
							t.Errorf("round %d slot %d: shared-reception inbox %q, per-recipient %q", round, s, got[s], ownIn[s])
						}
					}
				}
				if shared.stats != own.stats {
					t.Errorf("statistics diverge: shared %+v, per-recipient %+v", shared.stats, own.stats)
				}
			})
		}
	}
}

// TestRowRoutingKeepsRowsOpen pins how the router routes the row-routing
// execution (export_test.go), whose Results TestRowRoutingMatchesPerPair
// holds to the reference interpreter — Results a router quietly routing
// every pair through its tail would match too. In a round no hold, stall
// or replay window covers, a broadcast is one row entry per identifier
// group (the rows hold at least (n-bad)·l entries) and the tails hold
// exactly the targeted and drained pairs; a round inside a window, or
// one whose first routed pair is Byzantine (the engine never routes so;
// the pair must close the rows so that arena order survives), leaves the
// rows empty. Group-shared flush also hands every slot the inbox, and
// the execution the statistics, of a per-recipient flush.
func TestRowRoutingKeepsRowsOpen(t *testing.T) {
	for _, v := range RowVariants() {
		t.Run(v.Name, func(t *testing.T) {
			build := func() *routerHarness {
				h := &routerHarness{cfg: RowConfig(v), intern: msg.NewInterner()}
				h.isBad = make([]bool, h.cfg.Params.N)
				for _, s := range h.cfg.Adversary.Corrupt(h.cfg.Params, h.cfg.Assignment, h.cfg.Inputs) {
					h.isBad[s] = true
				}
				inj, err := inject.Compile(v.Sched, h.cfg.Params.N)
				if err != nil {
					t.Fatal(err)
				}
				h.r = newRouter(&h.cfg, h.isBad, &h.stats, h.intern, false, inj)
				h.r.enableTiming(RowTime.Timing())
				return h
			}
			shared, own := build(), build()
			p := shared.cfg.Params
			bad := shared.cfg.Adversary.Corrupt(p, shared.cfg.Assignment, shared.cfg.Inputs)
			for round := 1; round <= RowRounds; round++ {
				byzFirst, targeted := round == 7, 0
				for _, h := range []*routerHarness{shared, own} {
					routeByz := func() {
						for _, s := range bad {
							sends := h.cfg.Adversary.Sends(round, s, nil)
							h.r.routeByzantine(s, sends)
							targeted += len(sends)
						}
					}
					h.r.beginRound(round)
					if byzFirst {
						routeByz()
					}
					for s := 0; s < p.N; s++ {
						if !h.isBad[s] {
							h.r.routeCorrect(s, 1, RowTraffic(round, s, p.L))
						}
					}
					if !byzFirst {
						routeByz()
					}
				}
				targeted /= 2 // counted once per router
				shared.r.flush()
				own.flushPerRecipient()

				tails, rowed := 0, 0
				for _, tail := range shared.r.slots.pend {
					tails += len(tail)
				}
				for _, row := range shared.r.rows {
					rowed += len(row)
				}
				if round < v.FirstRow || byzFirst {
					if rowed != 0 {
						t.Errorf("round %d: %d row entries in a round routed per pair", round, rowed)
					}
				} else {
					want := targeted
					if round == v.DrainRound {
						want += shared.stats.TimingHolds
					}
					if tails != want {
						t.Errorf("round %d: tails hold %d pairs, want the %d targeted and drained ones", round, tails, want)
					}
					if rowed < (p.N-len(bad))*p.L {
						t.Errorf("round %d: rows hold %d entries, want at least one per broadcast and group (%d)", round, rowed, (p.N-len(bad))*p.L)
					}
				}
				got, want := shared.drainInboxes(), own.drainInboxes()
				for s := range got {
					if got[s] != want[s] {
						t.Errorf("round %d slot %d: group-shared inbox %q, per-recipient %q", round, s, got[s], want[s])
					}
				}
			}
			if v.DrainRound > 0 && shared.stats.TimingHolds == 0 {
				t.Error("the delay never held anything")
			}
			if shared.stats.MessagesDropped == 0 {
				t.Error("the pre-GST drop mask never fired")
			}
			if shared.stats != own.stats {
				t.Errorf("statistics diverge: group-shared %+v, per-recipient %+v", shared.stats, own.stats)
			}
		})
	}
}

// TestVerifyRoundChecksRowsAndTails pins the paranoid checks that guard
// the row stage. row-order: a tail entry stamped at or before its
// group's last row entry would make row ++ tail a different sequence
// from the model's send-major one. class-equality: the probed member's candidate
// is rebuilt from its row and tail and re-masked, so a member whose tail
// no longer equals its representative's is caught even though flush
// matched the two by tail.
func TestVerifyRoundChecksRowsAndTails(t *testing.T) {
	const n, l = 12, 4
	cfg := symmetricConfig(n, l)
	cfg.Invariants = true
	h := newRouterHarness(t, cfg, []int{3})
	round := func() *slotStage {
		h.broadcastRound(1, map[int][]msg.TargetedSend{3: {{ToSlot: 4, Body: msg.Raw("poison")}}})
		h.drainInboxes()
		return h.r.slots
	}
	check := func(want string) {
		t.Helper()
		err, _ := h.r.verifyRound().(*InvariantError)
		if err == nil || err.Check != want {
			t.Fatalf("VerifyRound = %v, want a %q violation", err, want)
		}
	}

	st := round()
	if err := h.r.verifyRound(); err != nil {
		t.Fatalf("a sound round fails verification: %v", err)
	}
	row := h.r.rows[0]
	if len(st.pend[4]) != 1 || len(row) != n-1 {
		t.Fatalf("slot 4's tail holds %d entries and its row %d, want 1 and %d", len(st.pend[4]), len(row), n-1)
	}
	st.pend[4][0] = row[len(row)-1]
	check("row-order")

	// Slots 0 and 8 share slot 0's class (slot 4 diverged). Give slot 8 a
	// tail entry after the fact: its rebuilt candidate has one more
	// delivery than the batch it was handed.
	st = round()
	st.pend[8] = append(st.pend[8], st.pend[4][0])
	check("class-equality")
}

// countedBody is a standing payload that counts its key builds.
type countedBody struct {
	v      int
	builds *int
}

func (b countedBody) BuildKey(kb *msg.KeyBuilder) {
	*b.builds++
	kb.Reset("standing").Int(b.v)
}

func (b countedBody) Key() string { return msg.ScratchKey(b) }

// standingSends builds k broadcasts of distinct countedBody payloads,
// each offered with its own stamp memo.
func standingSends(k int, builds *int) []msg.Send {
	memos := make([]msg.StampMemo, k)
	sends := make([]msg.Send, k)
	for i := range sends {
		sends[i] = msg.Send{Kind: msg.ToAll, Body: countedBody{v: i, builds: builds}, Memo: &memos[i]}
	}
	return sends
}

// standingStep is one round of a standing-send scenario: every correct
// slot re-offers the standing payloads offer keeps, each standing for
// copies senders, with the round's link conditions.
type standingStep struct {
	copies int32
	keep   func(i int) bool // which of its payloads a slot offers; nil: all
	record bool             // the round records its traffic
}

// standingRound is what one scenario round shows: how many correct
// sends were stamped and spared, and every correct slot's full inbox and
// Delta.
type standingRound struct {
	stamped, spared int
	full, delta     []string
}

// runStanding routes steps, one round each, over n=12 slots with l=4
// identifiers (numerate, slot 7 Byzantine and silent), each correct slot
// offering three broadcasts with memos of its own — marked Standing
// unless plain — and returns every round and the statistics and
// MaxSends gauge the run ended with. The rounds before gst drop a
// seeded quarter of the links; sched adds injected faults.
func runStanding(t *testing.T, plain bool, gst int, sched *inject.Schedule, steps []standingStep) ([]standingRound, Stats, int) {
	t.Helper()
	const n, l, k = 12, 4, 3
	cfg := Config{
		Params:     hom.Params{N: n, L: l, T: 1, Synchrony: hom.PartiallySynchronous, Numerate: true},
		Assignment: hom.RoundRobinAssignment(n, l),
		Adversary:  SeededMask{Seed: 5, Modulus: 4},
		GST:        gst,
		Invariants: true,
	}
	inj, err := inject.Compile(sched, n)
	if err != nil {
		t.Fatal(err)
	}
	isBad := make([]bool, n)
	isBad[7] = true
	var stats Stats
	r := newRouter(&cfg, isBad, &stats, msg.NewInterner(), false, inj)
	builds := 0
	sends := make([][]msg.Send, n)
	for s := range sends {
		memos := make([]msg.StampMemo, k)
		for i := 0; i < k; i++ {
			sends[s] = append(sends[s], msg.Send{Kind: msg.ToAll, Body: countedBody{v: 10*s + i, builds: &builds}, Memo: &memos[i], Standing: !plain})
		}
	}
	var out []standingRound
	for round, step := range steps {
		r.record = step.record
		r.beginRound(round + 1)
		var got standingRound
		for s := 0; s < n; s++ {
			if isBad[s] {
				continue
			}
			var offered []msg.Send
			for i, sd := range sends[s] {
				if step.keep == nil || step.keep(i) {
					offered = append(offered, sd)
				}
			}
			r.routeCorrect(s, step.copies, offered)
		}
		got.stamped, got.spared = r.arena.Len(), r.spared.Len()
		r.flush()
		for s := 0; s < n; s++ {
			if isBad[s] || inj.Down(s, round+1) {
				got.full, got.delta = append(got.full, ""), append(got.delta, "")
				continue
			}
			in := r.inbox(s)
			got.delta = append(got.delta, inboxFingerprint(in.Delta()))
			got.full = append(got.full, inboxFingerprint(in))
			in.Recycle()
		}
		if err := r.verifyRound(); err != nil {
			t.Fatalf("round %d: %v", round+1, err)
		}
		out = append(out, got)
	}
	r.releaseCores()
	return out, stats, r.totalStamped
}

// TestStandingSendsStampOncePerExecution pins the stamp memo: a send
// offered with its sender's memo builds and interns its key the first
// time and never again — a round re-sending k standing payloads performs
// 0 key builds and 0 allocations — while everything the memo was not
// filled for (another identifier, the interner after a Reset) takes the
// key path, gets the right KeyID, and leaves the memo to its owner.
//
// Its standing cases pin when a standing broadcast is accounted instead
// of stamped: only in a weighted round right after a weighted round that
// routed the same send from the same slot with the same copies. Each
// scenario runs twice, with the sends marked Standing and without, and
// the two must agree on every full inbox, on Stats and on the MaxSends
// gauge, while the Delta of a spared round holds only what was stamped.
func TestStandingSendsStampOncePerExecution(t *testing.T) {
	const correct, k = 11, 3
	all := standingStep{copies: 1}
	for _, tc := range []struct {
		name  string
		gst   int
		sched *inject.Schedule
		steps []standingStep
		spare []int // correct sends spared per round
	}{
		{"weighted rounds in a row spare", 1, nil,
			[]standingStep{all, all, all}, []int{0, correct * k, correct * k}},
		{"a drop round forces a stamp", 3, nil,
			[]standingStep{all, all, all, all}, []int{0, 0, 0, correct * k}},
		{"a loss window forces a stamp", 1, &inject.Schedule{Omissions: []inject.Omission{{Slot: 5, Send: true, From: 2, Until: 2, Prob: 0.5, Seed: 3}}},
			[]standingStep{all, all, all, all}, []int{0, 0, 0, correct * k}},
		{"recording forces a stamp", 1, nil,
			[]standingStep{all, {copies: 1, record: true}, all, all}, []int{0, 0, 0, correct * k}},
		{"changed copies force a stamp", 1, nil,
			[]standingStep{all, all, {copies: 2}, {copies: 2}}, []int{0, correct * k, 0, correct * k}},
		// A slot's sends are matched in routing order: once its middle
		// send is withdrawn, the last one is stamped again too.
		{"a withdrawn send leaves the union", 1, nil,
			[]standingStep{all, all, {copies: 1, keep: func(i int) bool { return i != 1 }}, {copies: 1, keep: func(i int) bool { return i != 1 }}},
			[]int{0, correct * k, correct, 2 * correct}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, stats, gauge := runStanding(t, false, tc.gst, tc.sched, tc.steps)
			want, wantStats, wantGauge := runStanding(t, true, tc.gst, tc.sched, tc.steps)
			for i, g := range got {
				w := want[i]
				if g.spared != tc.spare[i] || g.stamped+g.spared != w.stamped {
					t.Errorf("round %d: %d sends stamped and %d spared, want %d spared of %d", i+1, g.stamped, g.spared, tc.spare[i], w.stamped)
				}
				if !slices.Equal(g.full, w.full) {
					t.Errorf("round %d: full inboxes differ from the stamped run's:\n got %q\nwant %q", i+1, g.full, w.full)
				}
				if g.spared == 0 && !slices.Equal(g.delta, g.full) {
					t.Errorf("round %d spared nothing, yet a Delta differs from its inbox", i+1)
				}
				if g.spared > 0 && g.stamped == 0 && g.delta[0] != "0/0" {
					t.Errorf("round %d stamped nothing, yet slot 0's Delta holds %s", i+1, g.delta[0])
				}
			}
			if stats != wantStats || gauge != wantGauge {
				t.Errorf("accounting differs from the stamped run: %+v (MaxSends gauge %d), want %+v (%d)", stats, gauge, wantStats, wantGauge)
			}
		})
	}
	t.Run("memo", testStampMemo)
}

func testStampMemo(t *testing.T) {
	const n, l, k = 12, 4, 50
	h := newRouterHarness(t, symmetricConfig(n, l), nil)
	builds := 0
	sends := standingSends(k, &builds)
	// stamped re-routes the sends from one slot in a fresh round and
	// returns what the arena holds for them.
	type entry struct {
		kid    msg.KeyID
		key    string
		keyLen int32
	}
	stamped := func(round, from int) []entry {
		h.r.beginRound(round)
		h.r.routeCorrect(from, 1, sends)
		out := make([]entry, k)
		for si := range out {
			out[si] = entry{h.r.arena.KID(int32(si)), h.r.arena.Key(int32(si)), h.r.sendKeyLen[si]}
		}
		return out
	}
	equal := func(a, b []entry) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	first := stamped(1, 0)
	if builds != k {
		t.Fatalf("first stamp of %d standing sends built %d keys", k, builds)
	}
	for i, e := range first {
		want := msg.NewMessage(1, sends[i].Body)
		if e.key != want.Key() || e.kid != h.intern.Lookup(want.Key()) || int(e.keyLen) != len(sends[i].Body.Key()) {
			t.Fatalf("send %d stamped as %+v, want key %q", i, e, want.Key())
		}
	}
	builds = 0
	// Slots 0 and 4 are homonyms (identifier 1): the same payload under
	// the same identifier is the same message, so the memo answers.
	if again, twin := stamped(2, 0), stamped(3, 4); !equal(again, first) || !equal(twin, first) || builds != 0 {
		t.Fatalf("re-sending standing payloads built %d keys (want 0) or changed what was stamped", builds)
	}
	allocs := testing.AllocsPerRun(20, func() {
		h.r.beginRound(4)
		h.r.routeCorrect(0, 1, sends)
	})
	if allocs != 0 {
		t.Fatalf("a round re-sending %d standing payloads allocated %.0f times, want 0", k, allocs)
	}
	if builds != 0 {
		t.Fatalf("re-sending standing payloads built %d keys, want 0", builds)
	}

	// Another identifier is another message: key path, and the owner's
	// memo survives it.
	other := stamped(5, 1)
	if builds != k {
		t.Fatalf("stamping under another identifier built %d keys, want %d (a memo answers for one identifier)", builds, k)
	}
	for i, e := range other {
		if want := msg.NewMessage(2, sends[i].Body).Key(); e.key != want || e.kid == first[i].kid {
			t.Fatalf("send %d under identifier 2 stamped as %q (KeyID %d), want %q under a KeyID of its own", i, e.key, e.kid, want)
		}
	}
	builds = 0
	if back := stamped(6, 0); !equal(back, first) || builds != 0 {
		t.Fatalf("a foreign stamp overwrote the owner's memo: %d key builds on the owner's next round", builds)
	}

	// A Reset interner issues KeyIDs afresh: memos of its previous epoch
	// must not answer.
	h.intern.Reset()
	h.intern.Intern("occupies KeyID 1")
	fresh := stamped(7, 0)
	if builds != k {
		t.Fatalf("stamping after an interner Reset built %d keys, want %d", builds, k)
	}
	for i, e := range fresh {
		if want := msg.NewMessage(1, sends[i].Body).Key(); e.key != want || e.kid != h.intern.Lookup(want) {
			t.Fatalf("send %d after Reset stamped as %q (KeyID %d), the interner holds %q as %d", i, e.key, e.kid, want, h.intern.Lookup(want))
		}
	}
}

// TestVerifyRoundChecksStampMemos pins the paranoid check behind the
// handle path: every entry stamped from a memo has its key re-derived,
// so a memo that answers for a payload it was not filled for is caught.
func TestVerifyRoundChecksStampMemos(t *testing.T) {
	const n, l = 12, 4
	cfg := symmetricConfig(n, l)
	cfg.Invariants = true
	h := newRouterHarness(t, cfg, nil)
	builds := 0
	sends := standingSends(3, &builds)
	round := func(r int) error {
		h.r.beginRound(r)
		h.r.routeCorrect(0, 1, sends)
		h.r.flush()
		h.drainInboxes()
		return h.r.verifyRound()
	}
	for r := 1; r <= 2; r++ {
		if err := round(r); err != nil {
			t.Fatalf("round %d of sound standing sends fails verification: %v", r, err)
		}
	}
	if len(h.r.memoStamped) != len(sends) {
		t.Fatalf("round 2 stamped %d entries from memos, want %d", len(h.r.memoStamped), len(sends))
	}
	// The second payload goes out with the first one's (filled) memo.
	sends[1].Memo = sends[0].Memo
	err, _ := round(3).(*InvariantError)
	if err == nil || err.Check != "stamp-memo" {
		t.Fatalf("VerifyRound = %v, want a %q violation", err, "stamp-memo")
	}

	// Standing sends are spared from round 2 on and re-derived as the
	// entries they were accounted as. A sender that breaks the Standing
	// promise — another payload behind the same memo — is caught.
	h = newRouterHarness(t, cfg, nil)
	sends = standingSends(3, &builds)
	for i := range sends {
		sends[i].Standing = true
	}
	for r := 1; r <= 2; r++ {
		if err := round(r); err != nil {
			t.Fatalf("round %d of sound standing sends fails verification: %v", r, err)
		}
	}
	if h.r.spared.Len() != len(sends) {
		t.Fatalf("round 2 spared %d standing sends, want %d", h.r.spared.Len(), len(sends))
	}
	sends[1].Body = countedBody{v: 99, builds: &builds}
	err, _ = round(3).(*InvariantError)
	if err == nil || err.Check != "standing-memo" {
		t.Fatalf("VerifyRound = %v, want a %q violation", err, "standing-memo")
	}

	// A Byzantine slot's sends naming one Forwards stamp from one memo.
	// A send naming a Forwards whose Body it does not carry is caught.
	const bad = 5
	h = newRouterHarness(t, cfg, []int{bad})
	sends = standingSends(2, &builds)
	forward := func(r int, second msg.Payload) error {
		h.r.beginRound(r)
		h.r.routeByzantine(bad, []msg.TargetedSend{
			{ToSlot: 0, Body: sends[0].Body, Forwards: &sends[0]},
			{ToSlot: 1, Body: second, Forwards: &sends[0]},
		})
		h.r.flush()
		h.drainInboxes()
		return h.r.verifyRound()
	}
	if err := forward(1, sends[0].Body); err != nil {
		t.Fatalf("a sound forwarded body fails verification: %v", err)
	}
	if len(h.r.memoStamped) != 1 {
		t.Fatalf("two sends forwarding one body stamped %d entries from a memo, want 1", len(h.r.memoStamped))
	}
	err, _ = forward(2, sends[1].Body).(*InvariantError)
	if err == nil || err.Check != "stamp-memo" {
		t.Fatalf("VerifyRound = %v, want a %q violation", err, "stamp-memo")
	}
}

// TestForwardedBodiesKeyOncePerCall pins the forward memos: one
// Byzantine slot routing n targeted sends that name k distinct Forwards
// builds k keys, not n, and stamps every entry with the KeyID and key
// length the key path gives it. Each call keys its forwards afresh, and
// a warm call allocates nothing.
func TestForwardedBodiesKeyOncePerCall(t *testing.T) {
	const n, l, k, bad = 12, 4, 3, 5
	h := newRouterHarness(t, symmetricConfig(n, l), []int{bad})
	builds := 0
	src := standingSends(k, &builds)
	plain := make([]msg.TargetedSend, n)
	fwd := make([]msg.TargetedSend, n)
	for to := range fwd {
		plain[to] = msg.TargetedSend{ToSlot: to, Body: src[to%k].Body}
		fwd[to] = msg.TargetedSend{ToSlot: to, Body: src[to%k].Body, Forwards: &src[to%k]}
	}
	type entry struct {
		kid    msg.KeyID
		keyLen int32
	}
	stamped := func(round int, sends []msg.TargetedSend) []entry {
		builds = 0
		h.r.beginRound(round)
		h.r.routeByzantine(bad, sends)
		out := make([]entry, h.r.arena.Len())
		for si := range out {
			out[si] = entry{h.r.arena.KID(int32(si)), h.r.sendKeyLen[si]}
		}
		return out
	}
	want := stamped(1, plain)
	if builds != n {
		t.Fatalf("%d sends naming no Forwards built %d keys, want %d", n, builds, n)
	}
	for r := 2; r <= 3; r++ {
		if got := stamped(r, fwd); builds != k || !slices.Equal(got, want) {
			t.Fatalf("round %d: %d sends forwarding %d bodies built %d keys (want %d), or stamped\n%v, want\n%v", r, n, k, builds, k, got, want)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		h.r.beginRound(4)
		h.r.routeByzantine(bad, fwd)
	})
	if allocs != 0 {
		t.Fatalf("a round forwarding %d bodies to %d recipients allocated %.0f times, want 0", k, n, allocs)
	}
}

// TestRunReturnsStampStoreEmpty pins the teardown of the pooled stamp
// store: once Run returns, the store the execution stamped into holds no
// entry, no column and no forward memo, so the next execution drawing it
// from the pool inherits nothing and no body, key, interner or send
// stays reachable through the pool.
func TestRunReturnsStampStoreEmpty(t *testing.T) {
	const n, l, bad, rounds = 12, 4, 3, 3
	forwarded := msg.Broadcast(msg.Raw("forwarded"))
	plan := make(map[int][]msg.TargetedSend)
	for r := 1; r <= rounds; r++ {
		for to := 0; to < n; to++ {
			plan[r] = append(plan[r], msg.TargetedSend{ToSlot: to, Body: forwarded.Body, Forwards: &forwarded})
		}
	}
	e, err := New(
		WithParams(hom.Params{N: n, L: l, T: 1, Synchrony: hom.Synchronous}),
		WithAssignment(hom.RoundRobinAssignment(n, l)),
		WithInputs(make([]hom.Value, n)...),
		WithProcess(func(int) Process { return &lastFoldProc{} }),
		WithAdversary(poisonPlan{bad: bad, plan: plan}),
		WithRounds(rounds),
	)
	if err != nil {
		t.Fatal(err)
	}
	st := e.router.stampStore
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.router.stampStore != nil {
		t.Fatal("Run kept its stamp store")
	}
	if st.arena.Len() != 0 || st.spared.Len() != 0 || len(st.sendFrom) != 0 || len(st.sendKeyLen) != 0 || len(st.sparedKeyLen) != 0 {
		t.Fatalf("the returned store still holds %d stamped and %d spared entries", st.arena.Len(), st.spared.Len())
	}
	if cap(st.fwdMemo) == 0 {
		t.Fatal("the execution forwarded no body through a memo")
	}
	if len(st.fwdMemo) != 0 || len(st.fwdOf) != 0 {
		t.Fatalf("the returned store still holds %d forward memos", len(st.fwdOf))
	}
	for i, m := range st.fwdMemo[:cap(st.fwdMemo)] {
		if m != (msg.StampMemo{}) {
			t.Fatalf("forward memo %d was returned filled", i)
		}
	}
}
