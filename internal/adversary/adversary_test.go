package adversary_test

import (
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

func params(n, l, t int) hom.Params {
	return hom.Params{N: n, L: l, T: t, Synchrony: hom.Synchronous}
}

func view(n int, sends map[int][]msg.Send) *engine.View {
	bySlot := make([][]msg.Send, n)
	for s, snds := range sends {
		bySlot[s] = snds
	}
	return engine.NewView(params(n, n, 1), hom.RoundRobinAssignment(n, n), nil, 1, bySlot, nil)
}

func TestSelectors(t *testing.T) {
	p := params(6, 3, 2)
	a := hom.RoundRobinAssignment(6, 3)

	if got := (adversary.FirstT{}).Select(p, a, nil); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("FirstT = %v", got)
	}
	if got := (adversary.Slots{4, 1}).Select(p, a, nil); got[0] != 1 || got[1] != 4 {
		t.Fatalf("Slots not sorted: %v", got)
	}
	// OnePerIdentifier picks the first slot of each identifier.
	got := adversary.OnePerIdentifier{2, 3}.Select(p, a, nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("OnePerIdentifier = %v, want [1 2]", got)
	}
	// RandomT is deterministic in its seed and within budget.
	r1 := adversary.RandomT{Seed: 9}.Select(p, a, nil)
	r2 := adversary.RandomT{Seed: 9}.Select(p, a, nil)
	if len(r1) != p.T {
		t.Fatalf("RandomT size = %d, want %d", len(r1), p.T)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("RandomT not deterministic")
		}
	}
}

func TestSilentAndCrash(t *testing.T) {
	if got := (adversary.Silent{}).Sends(1, 0, view(3, nil)); got != nil {
		t.Fatalf("Silent sent %v", got)
	}
	if got := (adversary.Crash{}).Sends(1, 0, view(3, nil)); got != nil {
		t.Fatalf("Crash sent %v", got)
	}
}

func TestNoiseDeterministicAndTotal(t *testing.T) {
	nz := adversary.Noise{Seed: 4}
	v := view(4, nil)
	a := nz.Sends(3, 1, v)
	b := nz.Sends(3, 1, v)
	if len(a) != 4 {
		t.Fatalf("Noise sent %d messages, want one per recipient", len(a))
	}
	for i := range a {
		if a[i].ToSlot != b[i].ToSlot || a[i].Body.Key() != b[i].Body.Key() {
			t.Fatal("Noise not deterministic")
		}
	}
	// Different rounds produce different payloads.
	c := nz.Sends(4, 1, v)
	if a[0].Body.Key() == c[0].Body.Key() {
		t.Fatal("Noise payload did not vary with round")
	}
}

func TestEquivocateForwardsRealPayloads(t *testing.T) {
	sends := map[int][]msg.Send{
		0: {msg.Broadcast(msg.Raw("a"))},
		2: {msg.Broadcast(msg.Raw("b"))},
	}
	out := adversary.Equivocate{Seed: 1}.Sends(1, 1, view(4, sends))
	if len(out) != 4 {
		t.Fatalf("Equivocate sent %d, want 4", len(out))
	}
	for _, ts := range out {
		k := ts.Body.Key()
		if k != msg.Raw("a").Key() && k != msg.Raw("b").Key() {
			t.Fatalf("Equivocate forged payload %q", k)
		}
	}
}

func TestEquivocateNoCorrectSenders(t *testing.T) {
	if out := (adversary.Equivocate{Seed: 1}).Sends(1, 0, view(3, nil)); out != nil {
		t.Fatalf("Equivocate with no senders sent %v", out)
	}
}

func TestMimicFloodSendsEverythingToEveryone(t *testing.T) {
	sends := map[int][]msg.Send{
		0: {msg.Broadcast(msg.Raw("a"))},
		1: {msg.Broadcast(msg.Raw("b")), msg.SendTo(1, msg.Raw("targeted"))},
	}
	out := adversary.MimicFlood{}.Sends(1, 2, view(3, sends))
	// 2 broadcast bodies x 3 recipients (targeted sends are not copied).
	if len(out) != 6 {
		t.Fatalf("MimicFlood sent %d, want 6", len(out))
	}
}

func TestUntilCutsOff(t *testing.T) {
	u := adversary.Until{Round: 2, Inner: adversary.Noise{Seed: 1}}
	if got := u.Sends(2, 0, view(3, nil)); len(got) == 0 {
		t.Fatal("Until silenced inner before its round")
	}
	if got := u.Sends(3, 0, view(3, nil)); got != nil {
		t.Fatal("Until leaked inner after its round")
	}
}

func TestDropPolicies(t *testing.T) {
	if (adversary.NoDrops{}).Drop(1, 0, 1) {
		t.Fatal("NoDrops dropped")
	}
	rd := adversary.RandomDrops{Seed: 2, Prob: 1.0}
	if !rd.Drop(1, 0, 1) {
		t.Fatal("RandomDrops with prob 1 did not drop")
	}
	rd = adversary.RandomDrops{Seed: 2, Prob: 0.0}
	if rd.Drop(1, 0, 1) {
		t.Fatal("RandomDrops with prob 0 dropped")
	}
	pd := adversary.PartitionDrops{GroupOf: func(s int) int {
		if s < 2 {
			return 0
		}
		if s == 4 {
			return -1 // ungrouped slot is never partitioned
		}
		return 1
	}}
	if !pd.Drop(1, 0, 3) || !pd.Drop(1, 3, 1) {
		t.Fatal("PartitionDrops failed to cut across groups")
	}
	if pd.Drop(1, 0, 1) || pd.Drop(1, 2, 3) {
		t.Fatal("PartitionDrops cut within a group")
	}
	if pd.Drop(1, 0, 4) || pd.Drop(1, 4, 3) {
		t.Fatal("PartitionDrops cut an ungrouped slot")
	}
}

func TestCompositeNilPieces(t *testing.T) {
	c := &adversary.Composite{}
	if got := c.Corrupt(params(4, 4, 1), hom.RoundRobinAssignment(4, 4), nil); got != nil {
		t.Fatalf("nil selector corrupted %v", got)
	}
	if got := c.Sends(1, 0, view(4, nil)); got != nil {
		t.Fatalf("nil behavior sent %v", got)
	}
	if c.Drop(1, 0, 1) {
		t.Fatal("nil drop policy dropped")
	}
}

func TestRandomDropsDeterministic(t *testing.T) {
	rd := adversary.RandomDrops{Seed: 7, Prob: 0.5}
	for round := 1; round < 20; round++ {
		for from := 0; from < 4; from++ {
			for to := 0; to < 4; to++ {
				if rd.Drop(round, from, to) != rd.Drop(round, from, to) {
					t.Fatal("RandomDrops not deterministic")
				}
			}
		}
	}
}

func TestKeyEquivocateGroupConsistency(t *testing.T) {
	// n=6, l=3 round-robin: groups {0,3}, {1,4}, {2,5}. Slot 5 is the
	// equivocator; the others broadcast distinguishable bodies.
	sends := make([][]msg.Send, 6)
	for s := 0; s < 5; s++ {
		sends[s] = []msg.Send{msg.Broadcast(msg.Raw("m" + string(rune('a'+s))))}
	}
	v := engine.NewView(params(6, 3, 1), hom.RoundRobinAssignment(6, 3), nil, 1, sends, []int{5})
	out := adversary.KeyEquivocate{Rand: adversary.NewRand(3)}.Sends(1, 5, v)
	if len(out) != 6 {
		t.Fatalf("KeyEquivocate sent %d messages, want one per recipient", len(out))
	}
	bySlot := make(map[int]string)
	for _, ts := range out {
		bySlot[ts.ToSlot] = ts.Body.Key()
	}
	// Recipients sharing an identifier must receive identical bodies.
	for _, group := range [][2]int{{0, 3}, {1, 4}, {2, 5}} {
		if bySlot[group[0]] != bySlot[group[1]] {
			t.Fatalf("group %v received different bodies: %q vs %q",
				group, bySlot[group[0]], bySlot[group[1]])
		}
	}
}

func TestValueFlood(t *testing.T) {
	made := 0
	vf := adversary.ValueFlood{
		Domain: []hom.Value{0, 1},
		Make: func(round int, v hom.Value) []msg.Payload {
			made++
			return []msg.Payload{msg.Raw("forged")}
		},
	}
	out := vf.Sends(2, 0, view(3, nil))
	if len(out) != 2*3 {
		t.Fatalf("ValueFlood sent %d messages, want domain x recipients = 6", len(out))
	}
	if made != 2 {
		t.Fatalf("Make called %d times, want once per domain value", made)
	}
	// Nil Make degrades to silence.
	if out := (adversary.ValueFlood{Domain: []hom.Value{0}}).Sends(1, 0, view(3, nil)); out != nil {
		t.Fatalf("nil Make sent %v", out)
	}
}

func TestTargetedDrops(t *testing.T) {
	td := adversary.TargetedDrops{Targets: []int{2}, Inbound: true}
	if !td.Drop(1, 0, 2) {
		t.Fatal("inbound delivery to target not dropped")
	}
	if td.Drop(1, 2, 0) {
		t.Fatal("outbound delivery dropped without Outbound")
	}
	both := adversary.TargetedDrops{Targets: []int{2}, Inbound: true, Outbound: true}
	if !both.Drop(1, 2, 0) || !both.Drop(1, 0, 2) {
		t.Fatal("both-direction isolation incomplete")
	}
	if both.Drop(1, 0, 1) {
		t.Fatal("non-target delivery dropped")
	}
}

// TestPerScenarioRandThreading: two pieces sharing one per-scenario
// stream replay identically when the stream is rebuilt from the same
// seed — the contract the fuzzer's scenario replay depends on.
func TestPerScenarioRandThreading(t *testing.T) {
	p := params(6, 3, 2)
	a := hom.RoundRobinAssignment(6, 3)
	run := func(seed int64) []string {
		rng := adversary.NewRand(seed)
		sel := adversary.RandomT{Rand: rng}
		nz := adversary.Noise{Rand: rng}
		var out []string
		for _, s := range sel.Select(p, a, nil) {
			out = append(out, string(rune('0'+s)))
		}
		for round := 1; round <= 3; round++ {
			for _, ts := range nz.Sends(round, 0, view(6, nil)) {
				out = append(out, ts.Body.Key())
			}
		}
		return out
	}
	x, y := run(17), run(17)
	if len(x) == 0 || len(x) != len(y) {
		t.Fatalf("stream lengths differ: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("per-scenario stream not reproducible at %d: %q vs %q", i, x[i], y[i])
		}
	}
	// A different seed must give a different stream (sanity).
	z := run(18)
	same := len(z) == len(x)
	if same {
		diff := false
		for i := range x {
			if x[i] != z[i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestForwardersNameTheSendTheyRepeat pins the Forwards contract of the
// behaviours that copy correct broadcasts: every targeted send names,
// by address, the ToAll send of the view it copies, and carries exactly
// that send's Body. The engine keys each named send once per call.
func TestForwardersNameTheSendTheyRepeat(t *testing.T) {
	const n = 6
	sends := make([][]msg.Send, n)
	for s := 0; s < n-1; s++ {
		sends[s] = []msg.Send{msg.SendTo(1, msg.Raw("targeted")), msg.Broadcast(msg.Raw("m" + string(rune('a'+s))))}
	}
	v := engine.NewView(params(n, 3, 1), hom.RoundRobinAssignment(n, 3), nil, 1, sends, []int{n - 1})
	inView := func(f *msg.Send) bool {
		for s := range sends {
			for j := range sends[s] {
				if f == &sends[s][j] {
					return true
				}
			}
		}
		return false
	}
	for _, tc := range []struct {
		name string
		beh  adversary.Behavior
		want int
	}{
		{"Equivocate", adversary.Equivocate{Seed: 1}, n},
		{"KeyEquivocate", adversary.KeyEquivocate{Seed: 1}, n},
		{"MimicFlood", adversary.MimicFlood{}, n * (n - 1)},
		{"Copy", &adversary.ScriptBehavior{Steps: []adversary.ScriptSend{{Round: 1, Slot: n - 1, Copy: true, Src: 2}}}, n},
	} {
		out := tc.beh.Sends(1, n-1, v)
		if len(out) != tc.want {
			t.Fatalf("%s sent %d, want %d", tc.name, len(out), tc.want)
		}
		for _, ts := range out {
			if f := ts.Forwards; f == nil || !inView(f) || f.Kind != msg.ToAll || f.Body != ts.Body {
				t.Fatalf("%s: a send of %v names %+v, want the view's broadcast carrying it", tc.name, ts.Body, f)
			}
		}
	}
	mimic := &adversary.ScriptBehavior{
		Steps:   []adversary.ScriptSend{{Round: 1, Slot: n - 1, Mimic: true, Value: 1}},
		Factory: func(int) engine.Process { return &scriptEcho{} },
	}
	for _, ts := range mimic.Sends(1, n-1, v) {
		if f := ts.Forwards; f == nil || f.Body != ts.Body {
			t.Fatalf("Mimic: a send of %v names %+v, want the shadow's send carrying it", ts.Body, f)
		}
	}
}
