package psynchom

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// receiveDirectMaps is Receive's handling of the directly sent messages
// as it was before the identifier bitsets: one scan of the inbox per
// question, a fresh map per tally, candidates sorted to pick the
// smallest. It is kept as the oracle TestBitsetTalliesMatchMapTallies
// holds the single-pass version to.
func receiveDirectMaps(pr *Process, round int, in *msg.Inbox) {
	phase, pos := hom.PhasePos(round)
	updateProperMaps(pr, in)
	switch pos {
	case 3:
		lo, hi := in.IdentifierRange(hom.LeaderID(phase, pr.params.L))
		for i := lo; i < hi; i++ {
			if lp, ok := in.BodyAt(i).(LockPayload); ok && lp.Phase == phase && lp.Val != hom.NoValue && !slices.Contains(pr.lockSeen, lp.Val) {
				pr.lockSeen = append(pr.lockSeen, lp.Val)
			}
		}
	case 7:
		if pr.isLeader(phase) && pr.decision == hom.NoValue && pr.leaderLockVal != hom.NoValue {
			supporters := make(map[hom.Identifier]bool)
			for i, k := 0, in.Len(); i < k; i++ {
				if ap, ok := in.BodyAt(i).(AckPayload); ok && ap.Phase == phase && ap.Val == pr.leaderLockVal {
					supporters[in.SenderAt(i)] = true
				}
			}
			if len(supporters) >= pr.params.L-pr.params.T {
				pr.decision = pr.leaderLockVal
			}
		}
	case 8:
		if !pr.opts.DisableDecideRelay && pr.decision == hom.NoValue {
			support := make(map[hom.Value]map[hom.Identifier]bool)
			for i, k := 0, in.Len(); i < k; i++ {
				if dp, ok := in.BodyAt(i).(DecidePayload); ok && dp.Val != hom.NoValue {
					if support[dp.Val] == nil {
						support[dp.Val] = make(map[hom.Identifier]bool)
					}
					support[dp.Val][in.SenderAt(i)] = true
				}
			}
			var candidates []hom.Value
			for v, ids := range support {
				if len(ids) >= pr.params.T+1 {
					candidates = append(candidates, v)
				}
			}
			if len(candidates) > 0 {
				sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
				pr.decision = candidates[0]
			}
		}
		pr.releaseLocks()
	}
	slices.Sort(pr.lockSeen)
}

// updateProperMaps is the map-tallied proper-set rule (see
// receiveDirectMaps).
func updateProperMaps(pr *Process, in *msg.Inbox) {
	reporters := make(map[hom.Identifier]bool)
	supporters := make(map[hom.Value]map[hom.Identifier]bool)
	for i, k := 0, in.Len(); i < k; i++ {
		pp, ok := in.BodyAt(i).(ProperPayload)
		if !ok {
			continue
		}
		id := in.SenderAt(i)
		reporters[id] = true
		for _, v := range pp.V.Values() {
			if supporters[v] == nil {
				supporters[v] = make(map[hom.Identifier]bool)
			}
			supporters[v][id] = true
		}
	}
	anySupported := false
	for v, ids := range supporters {
		if len(ids) >= pr.params.T+1 {
			pr.proper.Add(v)
			anySupported = true
		}
	}
	if !anySupported && len(reporters) >= 2*pr.params.T+1 {
		pr.proper.AddAll(pr.params.EffectiveDomain())
	}
}

// TestBitsetTalliesMatchMapTallies runs generated inboxes of directly
// sent messages — proper sets with junk and ⊥ members, acks, decides and
// lock requests for the right and the wrong phase and value, several per
// identifier, interned and not — through Receive and through the
// map-tallied oracle, from the same state at every position of a phase,
// and compares everything the round may change. ℓ = 70 puts identifiers
// in both words of the bitsets.
func TestBitsetTalliesMatchMapTallies(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	values := []hom.Value{hom.NoValue, 0, 1, 2, 5}
	anyValue := func() hom.Value { return values[rng.Intn(len(values))] }
	for _, p := range []hom.Params{psyncParams(10, 7, 2), psyncParams(80, 70, 3), psyncParams(5, 4, 0)} {
		for iter := 0; iter < 400; iter++ {
			round := 1 + rng.Intn(8*hom.RoundsPerPhase)
			phase, _ := hom.PhasePos(round)
			leader := hom.LeaderID(phase, p.L)
			id := hom.Identifier(1 + rng.Intn(p.L))
			if rng.Intn(2) == 0 {
				id = leader
			}
			pr := newProc(p, id, hom.Value(rng.Intn(2)))
			pr.opts.DisableDecideRelay = rng.Intn(5) == 0
			if rng.Intn(3) > 0 {
				pr.leaderLockVal = hom.Value(rng.Intn(2))
			}
			if rng.Intn(8) == 0 {
				pr.decision = hom.Value(rng.Intn(2))
			}
			if rng.Intn(2) == 0 {
				pr.setLock(hom.Value(rng.Intn(2)), phase-1)
			}

			// A few identifiers carry the round, so thresholds are met
			// about as often as missed.
			senders := 1 + rng.Intn(min(p.L, 3*p.T+4))
			it := msg.NewInterner()
			interned := rng.Intn(2) == 0
			var raw []msg.Message
			send := func(from hom.Identifier, body msg.Payload) {
				if interned {
					raw = append(raw, msg.NewMessageInterned(it, from, body))
				} else {
					raw = append(raw, msg.Message{ID: from, Body: body})
				}
			}
			for s := 0; s < senders; s++ {
				from := hom.Identifier(1 + rng.Intn(p.L))
				if s == 0 {
					from = leader
				}
				for k := rng.Intn(4); k >= 0; k-- {
					set := hom.NewValueSet()
					for m := rng.Intn(3); m > 0; m-- {
						set.Add(anyValue())
					}
					switch rng.Intn(6) {
					case 0, 1:
						send(from, ProperPayload{V: set})
					case 2:
						send(from, AckPayload{Phase: phase - rng.Intn(2), Val: anyValue()})
					case 3:
						send(from, DecidePayload{Val: anyValue()})
					case 4:
						send(from, LockPayload{Phase: phase - rng.Intn(2), Val: anyValue()})
					default:
						send(from, msg.Raw("noise"))
					}
				}
			}

			// Every other round also carries one tally right at its
			// threshold: one identifier short of it, on it, or past it.
			if rng.Intn(2) == 0 {
				around := func(quorum int) []int { return rng.Perm(p.L)[:max(0, min(p.L, quorum-1+rng.Intn(3)))] }
				for _, i := range around(p.L - p.T) {
					send(hom.Identifier(i+1), AckPayload{Phase: phase, Val: pr.leaderLockVal})
				}
				for _, i := range around(p.T + 1) {
					send(hom.Identifier(i+1), DecidePayload{Val: 1})
				}
				for j, i := range around(2*p.T + 1) {
					send(hom.Identifier(i+1), ProperPayload{V: hom.NewValueSet(hom.Value(100 + j))})
				}
			}

			want := pr.CloneProcess().(*Process)
			receiveDirectMaps(want, round, msg.NewInbox(p.Numerate, raw))
			pr.Receive(round, msg.NewInbox(p.Numerate, raw))

			if !pr.proper.Equal(want.proper) {
				t.Fatalf("%v round %d: proper = %s, map tallies give %s", p, round, pr.proper, want.proper)
			}
			if pr.decision != want.decision {
				t.Fatalf("%v round %d: decision = %d, map tallies give %d", p, round, pr.decision, want.decision)
			}
			if !reflect.DeepEqual(pr.lockSeen, want.lockSeen) {
				t.Fatalf("%v round %d: lockSeen = %v, map tallies give %v", p, round, pr.lockSeen, want.lockSeen)
			}
			if !reflect.DeepEqual(pr.locks, want.locks) {
				t.Fatalf("%v round %d: locks = %v, map tallies give %v", p, round, pr.locks, want.locks)
			}
		}
	}
}

// TestIDTallyIgnoresInvalidIdentifiers pins the one place the bitsets
// differ from the maps by construction: an identifier outside 1..ℓ has
// no bit. The engines never deliver one.
func TestIDTallyIgnoresInvalidIdentifiers(t *testing.T) {
	var tally idTally
	tally.reset(64)
	for _, id := range []hom.Identifier{-1, 0, 65, math.MaxInt32} {
		tally.add(0, 3, id)
	}
	if len(tally.rows) != 0 {
		t.Fatalf("invalid identifiers opened rows: %v", tally.rows)
	}
	tally.add(0, 3, 1)
	tally.add(0, 3, 64)
	tally.add(0, 3, 64)
	tally.add(0, 2, 63)
	if got := tally.supportOf(0, 3); got != 2 {
		t.Fatalf("support of value 3 = %d, want 2", got)
	}
	if got := tally.supportOf(1, 3); got != 0 {
		t.Fatalf("support of value 3 in phase 1 = %d, want 0", got)
	}
	if v, ok := tally.minSupported(0, 1); !ok || v != 2 {
		t.Fatalf("minSupported(1) = %d, %v; want 2", v, ok)
	}
	if v, ok := tally.minSupported(0, 2); !ok || v != 3 {
		t.Fatalf("minSupported(2) = %d, %v; want 3", v, ok)
	}
	if _, ok := tally.minSupported(0, 3); ok {
		t.Fatal("minSupported(3) found a value with only 2 supporters")
	}
}

// TestReservedTalliesGrowApart fills three tallies reserved side by side
// with rooms of one, two and three rows well past their rooms, in an
// interleaved random order, and holds each to a tally grown on its own
// from nothing: a tally outgrowing its region never writes into its
// neighbour's, and ℓ = 70 puts identifiers in both bitset words.
func TestReservedTalliesGrowApart(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const l = 70
	var a, b, c idTally
	reserve(l, []int{1, 2, 3}, &a, &b, &c)
	var want [3]idTally
	for i := range want {
		want[i].reset(l)
	}
	for range 400 {
		i := rng.Intn(3)
		phase, v, id := rng.Intn(5), hom.Value(rng.Intn(3)), hom.Identifier(1+rng.Intn(l))
		[]*idTally{&a, &b, &c}[i].add(phase, v, id)
		want[i].add(phase, v, id)
	}
	for i, got := range []*idTally{&a, &b, &c} {
		if !slices.Equal(got.rows, want[i].rows) || !slices.Equal(got.ids, want[i].ids) {
			t.Errorf("tally %d: rows %v ids %v, grown alone: rows %v ids %v", i, got.rows, got.ids, want[i].rows, want[i].ids)
		}
	}
}
