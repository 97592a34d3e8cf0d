package psyncnum

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/numbcast"
)

// keyedBroadcaster is the Figure-6 receive path as it ran before tuples
// were resolved by lookup: every tuple's cell named by its canonical key
// string, rebuilt on every delivery, in maps. It is the oracle
// TestReceiveMatchesUnpackedReceive holds numbcast's Ingest to.
type keyedBroadcaster struct {
	n, t  int
	cells map[string]*keyedCell
}

type keyedCell struct {
	h     hom.Identifier
	body  msg.Payload
	k     int
	alpha int
}

func cellKey(h hom.Identifier, body msg.Payload, k int) string {
	return msg.NewKey("c").Identifier(h).Int(k).Nested(body).String()
}

func (b *keyedBroadcaster) cell(h hom.Identifier, body msg.Payload, k int) *keyedCell {
	key := cellKey(h, body, k)
	if b.cells[key] == nil {
		b.cells[key] = &keyedCell{h: h, body: body, k: k}
	}
	return b.cells[key]
}

func (b *keyedBroadcaster) valid(bundle *numbcast.Bundle, round int) bool {
	seen := map[string]bool{}
	fresh := func(key string) bool {
		ok := !seen[key]
		seen[key] = true
		return ok
	}
	for _, it := range bundle.Inits {
		if it.Body == nil || !fresh(msg.NewKey("i").Nested(it.Body).String()) {
			return false
		}
	}
	if len(bundle.Inits) > 0 && !hom.IsInitRound(round) {
		return false
	}
	for _, et := range bundle.Echoes {
		if et.Body == nil || et.A < 0 || et.K < 1 || et.K > hom.Superround(round) || !et.H.IsValid(1<<20) ||
			!fresh(cellKey(et.H, et.Body, et.K)) {
			return false
		}
	}
	return true
}

// threshold is the largest α that copies carrying α′ ≥ α reach need with.
func threshold(support [][2]int, need int) (int, bool) {
	slices.SortStableFunc(support, func(a, b [2]int) int { return cmp.Compare(b[0], a[0]) })
	run := 0
	for _, s := range support {
		if run += s[1]; run >= max(need, 1) {
			return s[0], true
		}
	}
	return 0, false
}

func (b *keyedBroadcaster) ingest(round int, in *msg.Inbox) []numbcast.Accept {
	sr := hom.Superround(round)
	var recv []numbcast.Delivery
	for i := 0; i < in.Len(); i++ {
		if bundle, ok := in.BodyAt(i).(*numbcast.Bundle); ok && b.valid(bundle, round) {
			recv = append(recv, numbcast.Delivery{ID: in.SenderAt(i), Bundle: bundle, Copies: in.CountAt(i)})
		}
	}
	if hom.IsInitRound(round) {
		counts := map[string]int{}
		var first []numbcast.Delivery
		for _, r := range recv {
			for _, it := range r.Bundle.Inits {
				key := cellKey(r.ID, it.Body, sr)
				if counts[key] == 0 {
					first = append(first, numbcast.Delivery{ID: r.ID, Bundle: &numbcast.Bundle{Inits: []numbcast.InitTuple{it}}})
				}
				counts[key] += r.Copies
			}
		}
		for _, f := range first {
			body := f.Bundle.Inits[0].Body
			b.cell(f.ID, body, sr).alpha = counts[cellKey(f.ID, body, sr)]
		}
	}
	support := map[string][][2]int{}
	var groups []numbcast.EchoTuple
	for _, r := range recv {
		for _, et := range r.Bundle.Echoes {
			key := cellKey(et.H, et.Body, et.K)
			if support[key] == nil {
				groups = append(groups, et)
			}
			support[key] = append(support[key], [2]int{et.A, r.Copies})
		}
	}
	var accepts []numbcast.Accept
	for _, g := range groups {
		s := support[cellKey(g.H, g.Body, g.K)]
		if a1, ok := threshold(s, b.n-2*b.t); ok {
			if c := b.cell(g.H, g.Body, g.K); a1 > c.alpha {
				c.alpha = a1
			}
		}
		if a2, ok := threshold(s, b.n-b.t); ok && !hom.IsInitRound(round) {
			accepts = append(accepts, numbcast.Accept{ID: g.H, Alpha: a2, Body: g.Body, SR: g.K})
		}
	}
	return accepts
}

// unpack flattens envelopes into an inbox of part messages interned
// in the process's table, a sender's k envelope copies becoming k copies
// of each part — the old receive path's first step.
func unpack(keys *msg.Interner, in *msg.Inbox) *msg.Inbox {
	var raw []msg.Message
	for i := 0; i < in.Len(); i++ {
		parts := []msg.Payload{in.BodyAt(i)}
		if env, ok := in.BodyAt(i).(Envelope); ok {
			parts = env.Parts
		}
		for _, part := range parts {
			if part != nil {
				for c := 0; c < in.CountAt(i); c++ {
					raw = append(raw, msg.NewMessageInterned(keys, in.SenderAt(i), part))
				}
			}
		}
	}
	return msg.NewInbox(in.Numerate(), raw)
}

// receiveUnpacked is Receive as it was before envelopes were read in
// place: unpack, the keyed broadcaster, and fresh maps for the proper-set
// and ack tallies.
func receiveUnpacked(pr *Process, bc *keyedBroadcaster, round int, rawIn *msg.Inbox) []numbcast.Accept {
	in := unpack(pr.keys, rawIn)
	defer in.Recycle()
	phase, pos := hom.PhasePos(round)
	need := pr.params.N - pr.params.T
	accepts := bc.ingest(round, in)
	for _, acc := range accepts {
		switch body := acc.Body.(type) {
		case ProposePayload:
			if acc.SR == proposeSR(body.Phase) {
				pr.maxAcceptPhase = max(pr.maxAcceptPhase, body.Phase)
				pr.addWitness(pr.proposeKID(body.Phase, body.Val), acc.ID, acc.Alpha)
			}
		case VotePayload:
			if acc.SR == voteSR(body.Phase) {
				pr.maxAcceptPhase = max(pr.maxAcceptPhase, body.Phase)
				pr.addWitness(pr.voteKID(body.Phase, body.Val), acc.ID, acc.Alpha)
			}
		}
	}
	total, valueCopies := 0, map[hom.Value]int{}
	for i := 0; i < in.Len(); i++ {
		if pp, ok := in.BodyAt(i).(ProperPayload); ok {
			total += in.CountAt(i)
			for _, v := range pp.V.Values() {
				valueCopies[v] += in.CountAt(i)
			}
		}
	}
	anySupported := false
	for v, copies := range valueCopies {
		if copies >= pr.params.T+1 {
			pr.proper.Add(v)
			anySupported = true
		}
	}
	if !anySupported && total >= 2*pr.params.T+1 {
		pr.proper.AddAll(pr.params.EffectiveDomain())
	}
	switch pos {
	case 3:
		lo, hi := in.IdentifierRange(hom.LeaderID(phase, pr.params.L))
		for i := lo; i < hi; i++ {
			if lp, ok := in.BodyAt(i).(LockPayload); ok && lp.Phase == phase && lp.Val != hom.NoValue {
				pr.lockSeen[lp.Val] = true
			}
		}
	case 7:
		if pr.decision == hom.NoValue {
			ackCopies := map[hom.Value]int{}
			for i := 0; i < in.Len(); i++ {
				if ap, ok := in.BodyAt(i).(AckPayload); ok && ap.Phase == phase && ap.Val != hom.NoValue {
					ackCopies[ap.Val] += in.CountAt(i)
				}
			}
			var candidates []hom.Value
			for v, copies := range ackCopies {
				if copies >= need && pr.witnessCount(pr.proposeKID(phase, v)) >= need {
					candidates = append(candidates, v)
				}
			}
			if len(candidates) > 0 {
				pr.decision = slices.Min(candidates)
			}
		}
	case 8:
		pr.releaseLocks(need)
	}
	return accepts
}

// echoRows renders a table's echoes canonically: the new side's from the
// bundle Outgoing would send, the oracle's from its cells.
func echoRows(tuples []numbcast.EchoTuple) []string {
	var rows []string
	for _, et := range tuples {
		if et.A > 0 {
			rows = append(rows, fmt.Sprintf("%d|%d|%d|%s", et.H, et.A, et.K, et.Body.Key()))
		}
	}
	slices.Sort(rows)
	return rows
}

func acceptRows(accs []numbcast.Accept) []string {
	var rows []string
	for _, a := range accs {
		rows = append(rows, fmt.Sprintf("%d|%d|%d|%s", a.ID, a.Alpha, a.SR, a.Body.Key()))
	}
	slices.Sort(rows)
	return rows
}

// TestReceiveMatchesUnpackedReceive runs generated envelope traffic
// through Receive and through the old unpack-and-rebuild path from the
// same start, round after round, and compares everything a round can
// change: accepts, witness tables, the broadcast table, proper sets,
// lockSeen, locks and decisions. The traffic comes from real senders —
// standing bundles, segments shared across bundles — delivered in copies,
// plus homonyms sharing a bundle under different proper sets, bundles
// from earlier rounds, malformed and future-superround bundles, forged
// envelopes, and bare parts; inboxes are numerate and innumerate,
// interned and not.
func TestReceiveMatchesUnpackedReceive(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for iter := 0; iter < 60; iter++ {
		p := []hom.Params{numParams(7, 3, 2), numParams(5, 2, 1), numParams(4, 2, 1)}[iter%3]
		p.Numerate = iter%2 == 0
		a := hom.RoundRobinAssignment(p.N, p.L)
		srcs := make([]*Process, p.N-p.T)
		for i := range srcs {
			srcs[i] = newProc(p, a[i], hom.Value(rng.Intn(2)))
		}
		id := hom.Identifier(1 + rng.Intn(p.L))
		pr := newProc(p, id, 0)
		opr := newProc(p, id, 0)
		obc := &keyedBroadcaster{n: p.N, t: p.T, cells: map[string]*keyedCell{}}
		it := msg.NewInterner()
		interned := rng.Intn(2) == 0
		var old []*numbcast.Bundle
		for round := 1; round <= 4*hom.RoundsPerPhase; round++ {
			phase, _ := hom.PhasePos(round)
			sr := hom.Superround(round)
			var srcRaw, raw []msg.Message
			send := func(to *[]msg.Message, from hom.Identifier, body msg.Payload, copies int) {
				for c := 0; c < copies; c++ {
					if interned {
						*to = append(*to, msg.NewMessageInterned(it, from, body))
					} else {
						*to = append(*to, msg.Message{ID: from, Body: body})
					}
				}
			}
			var bundles []*numbcast.Bundle
			for i, s := range srcs {
				env := s.Prepare(round)[0].Body.(Envelope)
				srcRaw = append(srcRaw, msg.Message{ID: a[i], Body: env})
				if rng.Intn(5) > 0 {
					send(&raw, a[i], env, 1+rng.Intn(2))
				}
				for _, part := range env.Parts {
					if b, ok := part.(*numbcast.Bundle); ok {
						bundles = append(bundles, b)
						if rng.Intn(3) == 0 { // a homonym with another proper set
							send(&raw, a[i], Envelope{Parts: []msg.Payload{b, ProperPayload{V: hom.NewValueSet(hom.Value(rng.Intn(3)))}}}, 1)
						}
					}
				}
			}
			anyID := func() hom.Identifier { return hom.Identifier(1 + rng.Intn(p.L)) }
			if len(bundles) > 0 && rng.Intn(2) == 0 {
				b := bundles[rng.Intn(len(bundles))]
				echoes := append([]numbcast.EchoTuple(nil), b.Echoes...)
				var inits []numbcast.InitTuple
				if len(echoes) > 0 {
					e := &echoes[rng.Intn(len(echoes))]
					switch rng.Intn(4) {
					case 0:
						e.K = sr + 1 + rng.Intn(2)
					case 1:
						e.A = -1
					case 2:
						echoes = append(echoes, numbcast.EchoTuple{H: e.H, A: e.A + 1, Body: e.Body, K: e.K})
					default:
						inits = []numbcast.InitTuple{{Body: e.Body}}
					}
				}
				send(&raw, anyID(), Envelope{Parts: []msg.Payload{numbcast.NewBundle(inits, echoes)}}, 1+rng.Intn(3))
			}
			if len(old) > 0 && rng.Intn(2) == 0 {
				send(&raw, anyID(), old[rng.Intn(len(old))], 1+rng.Intn(2))
			}
			if rng.Intn(3) == 0 {
				send(&raw, anyID(), forge(p, round, hom.Value(rng.Intn(2)))[0], 1)
			}
			for k := rng.Intn(4); k > 0; k-- {
				v := hom.Value(rng.Intn(3))
				body := []msg.Payload{
					ProperPayload{V: hom.NewValueSet(v)}, msg.Raw("noise"),
					LockPayload{Phase: phase - rng.Intn(2), Val: v}, AckPayload{Phase: phase - rng.Intn(2), Val: v},
				}[rng.Intn(4)]
				from := anyID()
				if rng.Intn(2) == 0 {
					from = hom.LeaderID(phase, p.L)
				}
				send(&raw, from, body, 1+rng.Intn(3))
			}
			old = append(old, bundles...)

			in := msg.NewInbox(p.Numerate, raw)
			got := acceptRows(pr.receive(round, in))
			want := acceptRows(receiveUnpacked(opr, obc, round, in))
			where := fmt.Sprintf("iter %d (%v) round %d", iter, p, round)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: accepts\n%v\nunpacked path\n%v", where, got, want)
			}
			var table []numbcast.EchoTuple
			if out := pr.bc.Outgoing(round + 1); out != nil {
				table = out.(*numbcast.Bundle).Echoes
			}
			var oracle []numbcast.EchoTuple
			for _, c := range obc.cells {
				oracle = append(oracle, numbcast.EchoTuple{H: c.h, A: c.alpha, Body: c.body, K: c.k})
			}
			if g, w := echoRows(table), echoRows(oracle); !slices.Equal(g, w) {
				t.Fatalf("%s: broadcast table\n%v\nunpacked path\n%v", where, g, w)
			}
			for ph := 0; ph <= phase; ph++ {
				for v := hom.Value(0); v < 3; v++ {
					if g, w := pr.witnessCount(pr.proposeKID(ph, v)), opr.witnessCount(opr.proposeKID(ph, v)); g != w {
						t.Fatalf("%s: propose witnesses of (%d, %d) = %d, unpacked path %d", where, ph, v, g, w)
					}
					if g, w := pr.witnessCount(pr.voteKID(ph, v)), opr.witnessCount(opr.voteKID(ph, v)); g != w {
						t.Fatalf("%s: vote witnesses of (%d, %d) = %d, unpacked path %d", where, ph, v, g, w)
					}
				}
			}
			if !pr.proper.Equal(opr.proper) || !reflect.DeepEqual(pr.lockSeen, opr.lockSeen) ||
				!reflect.DeepEqual(pr.locks, opr.locks) || pr.decision != opr.decision || pr.maxAcceptPhase != opr.maxAcceptPhase {
				t.Fatalf("%s: proper %s lockSeen %v locks %v decision %d phase %d; unpacked path %s %v %v %d %d", where,
					pr.proper, pr.lockSeen, pr.locks, pr.decision, pr.maxAcceptPhase,
					opr.proper, opr.lockSeen, opr.locks, opr.decision, opr.maxAcceptPhase)
			}

			// The senders hear each other, one copy each.
			for _, s := range srcs {
				s.Receive(round, msg.NewInbox(true, srcRaw))
			}
		}
	}
}

// TestSteadyStateRoundAllocs pins what a settled round costs five
// numerate processes: each re-sends its standing envelope and reads the
// round's envelopes in place, with no allocation.
func TestSteadyStateRoundAllocs(t *testing.T) {
	p := numParams(5, 2, 1)
	procs := make([]*Process, p.N)
	for i := range procs {
		procs[i] = newProc(p, hom.Identifier(i%p.L+1), hom.Value(i%2))
	}
	it := msg.NewInterner()
	inbox := func(round int) *msg.Inbox {
		var raw []msg.Message
		for i, pr := range procs {
			raw = append(raw, msg.NewMessageInterned(it, hom.Identifier(i%p.L+1), pr.Prepare(round)[0].Body))
		}
		return msg.NewInbox(true, raw)
	}
	const settled = 3*hom.RoundsPerPhase + 4 // SR2's second round, after deciding
	for round := 1; round < settled; round++ {
		in := inbox(round)
		for _, pr := range procs {
			pr.Receive(round, in)
		}
	}
	for _, pr := range procs {
		if _, ok := pr.Decision(); !ok {
			t.Fatal("the processes did not decide before the measured round")
		}
	}
	in := inbox(settled)
	allocs := testing.AllocsPerRun(20, func() {
		for _, pr := range procs {
			pr.Prepare(settled)
		}
		for _, pr := range procs {
			pr.Receive(settled, in)
		}
	})
	if allocs > 0 {
		t.Fatalf("a settled round allocates %.1f times, want 0", allocs)
	}
}
