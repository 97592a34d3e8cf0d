package adversary_test

import (
	"fmt"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

func countingMake(calls *[]int) func(round int, v hom.Value) []msg.Payload {
	return func(round int, v hom.Value) []msg.Payload {
		*calls = append(*calls, round)
		return []msg.Payload{msg.Raw(fmt.Sprintf("forged-r%d-v%d", round, v))}
	}
}

func TestScriptBehaviorForgeAndTo(t *testing.T) {
	var calls []int
	sb := &adversary.ScriptBehavior{
		Steps: []adversary.ScriptSend{
			{Round: 1, Slot: 0, Value: 1},
			{Round: 2, Slot: 0, Value: 0, To: []int{2}},
		},
		Make: countingMake(&calls),
	}
	v := view(3, nil)
	if out := sb.Sends(1, 0, v); len(out) != 3 {
		t.Fatalf("round 1 broadcast sent %d, want one per slot", len(out))
	}
	if out := sb.Sends(1, 1, v); out != nil {
		t.Fatalf("unscripted slot sent %v", out)
	}
	out := sb.Sends(2, 0, v)
	if len(out) != 1 || out[0].ToSlot != 2 {
		t.Fatalf("To filter ignored: %v", out)
	}
	if out := sb.Sends(3, 0, v); out != nil {
		t.Fatalf("unscripted round sent %v", out)
	}
}

// TestScriptBehaviorRepeatSpan: past the window the last scripted round
// replays — and a Span whose final round is deliberately silent repeats
// that silence, not the earlier noise. Forged payloads use the real
// round, not the scripted one.
func TestScriptBehaviorRepeatSpan(t *testing.T) {
	v := view(3, nil)

	var calls []int
	spanned := &adversary.ScriptBehavior{
		Steps:  []adversary.ScriptSend{{Round: 1, Slot: 0, Value: 1}},
		Repeat: true,
		Span:   2,
		Make:   countingMake(&calls),
	}
	if out := spanned.Sends(2, 0, v); out != nil {
		t.Fatalf("silent window round sent %v", out)
	}
	if out := spanned.Sends(7, 0, v); out != nil {
		t.Fatalf("repeat past a silent-final window sent %v", out)
	}

	calls = nil
	bare := &adversary.ScriptBehavior{
		Steps:  []adversary.ScriptSend{{Round: 1, Slot: 0, Value: 1}},
		Repeat: true,
		Make:   countingMake(&calls),
	}
	if out := bare.Sends(7, 0, v); len(out) != 3 {
		t.Fatalf("repeat without Span did not replay the last round: %v", out)
	}
	if len(calls) != 1 || calls[0] != 7 {
		t.Fatalf("Make called with %v, want the real round [7]", calls)
	}

	noRepeat := &adversary.ScriptBehavior{
		Steps: []adversary.ScriptSend{{Round: 1, Slot: 0, Value: 1}},
		Make:  countingMake(&calls),
	}
	if out := noRepeat.Sends(7, 0, v); out != nil {
		t.Fatalf("without Repeat round 7 sent %v", out)
	}
}

// TestScriptBehaviorCopy: Copy steps replay the source's current-round
// ToAll broadcasts without needing Make, and skip targeted sends.
func TestScriptBehaviorCopy(t *testing.T) {
	sends := map[int][]msg.Send{
		0: {msg.Broadcast(msg.Raw("a")), msg.SendTo(1, msg.Raw("targeted"))},
	}
	sb := &adversary.ScriptBehavior{
		Steps: []adversary.ScriptSend{{Round: 1, Slot: 2, Copy: true, Src: 0}},
	}
	out := sb.Sends(1, 2, view(3, sends))
	if len(out) != 3 {
		t.Fatalf("copy sent %d, want the broadcast to every slot", len(out))
	}
	for _, ts := range out {
		if ts.Body.Key() != msg.Raw("a").Key() {
			t.Fatalf("copy forwarded %q", ts.Body.Key())
		}
	}
}

// scriptEcho is a stub correct process for mimic tests: each round it
// broadcasts a body encoding its input and how many messages it has
// heard so far, so a test can see exactly what the shadow was fed.
type scriptEcho struct {
	input hom.Value
	heard int
}

func (e *scriptEcho) Init(ctx engine.Context) { e.input = ctx.Input }
func (e *scriptEcho) Prepare(r int) []msg.Send {
	return []msg.Send{msg.Broadcast(msg.Raw(fmt.Sprintf("echo-r%d-i%d-h%d", r, e.input, e.heard)))}
}
func (e *scriptEcho) Receive(r int, in *msg.Inbox) { e.heard += in.Len() }
func (e *scriptEcho) Decision() (hom.Value, bool)  { return 0, false }
func (e *scriptEcho) StateFingerprint() msg.StateHash {
	return msg.NewStateHash().Int(int(e.input)).Int(e.heard)
}

// TestScriptFingerprintFollowsShadows: a script's fingerprint is its live
// shadows' state. Forge steps leave it where it started, a mimic step
// moves it, scripts stepped alike agree, a shadow fed other messages differs,
// and the order of one identifier's messages does not matter; Composite
// and Until report their behaviour's fingerprint.
func TestScriptFingerprintFollowsShadows(t *testing.T) {
	basis := msg.NewStateHash()
	script := func(mimic bool) *adversary.ScriptBehavior {
		return &adversary.ScriptBehavior{
			Steps:   []adversary.ScriptSend{{Round: 1, Slot: 3, Mimic: mimic, Value: 1}},
			Make:    func(int, hom.Value) []msg.Payload { return []msg.Payload{msg.Raw("forged")} },
			Factory: func(int) engine.Process { return &scriptEcho{} },
		}
	}
	// Slots 0 and 2 share identifier 1; slot 3 is the Byzantine one.
	p, a := params(4, 2, 1), hom.RoundRobinAssignment(4, 2)
	round1 := func(first, second string) *engine.View {
		return engine.NewView(p, a, nil, 1, [][]msg.Send{{msg.Broadcast(msg.Raw(first))}, nil,
			{msg.Broadcast(msg.Raw(second))}, nil}, []int{3})
	}
	start := script(true).StateFingerprint()
	forge := script(false)
	forge.Sends(1, 3, round1("x", "y"))
	if forge.StateFingerprint() != start {
		t.Fatal("a forge step changed the fingerprint")
	}
	xy, yx, xx := script(true), script(true), script(true)
	xy.Sends(1, 3, round1("x", "y"))
	yx.Sends(1, 3, round1("y", "x"))
	xx.Sends(1, 3, round1("x", "x"))
	if xy.StateFingerprint() == start {
		t.Fatal("a mimic step left the fingerprint where it started")
	}
	if xy.StateFingerprint() != yx.StateFingerprint() {
		t.Fatal("the order of one identifier's messages changed the fingerprint")
	}
	if xy.StateFingerprint() == xx.StateFingerprint() {
		t.Fatal("shadows fed different messages share a fingerprint")
	}
	if got := (&adversary.Composite{Behavior: adversary.Until{Round: 5, Inner: xy}}).StateFingerprint(); got != xy.StateFingerprint() {
		t.Fatal("Composite and Until do not report the script's fingerprint")
	}
	if (&adversary.Composite{Behavior: adversary.Silent{}}).StateFingerprint() != basis ||
		(adversary.Until{Round: 5}).StateFingerprint() != basis {
		t.Fatal("a stateless behaviour does not report the basis")
	}
}

// TestScriptBehaviorMimic drives a shadow twin across two rounds: round
// 1 forwards the shadow's first Prepare; round 2 first replays the
// round-1 view into the shadow (correct senders plus self-delivery),
// then forwards its next Prepare. A duplicate step for the same shadow
// in the same round is inert.
func TestScriptBehaviorMimic(t *testing.T) {
	sb := &adversary.ScriptBehavior{
		Steps: []adversary.ScriptSend{{Round: 1, Slot: 2, Mimic: true, Value: 1},
			{Round: 2, Slot: 2, Mimic: true, Value: 1}},
		Factory: func(slot int) engine.Process { return &scriptEcho{} },
	}
	v1 := view(3, map[int][]msg.Send{
		0: {msg.Broadcast(msg.Raw("a"))},
		1: {msg.Broadcast(msg.Raw("b"))},
	})
	out := sb.Sends(1, 2, v1)
	if len(out) != 3 {
		t.Fatalf("mimic round 1 sent %d, want one per slot", len(out))
	}
	if key := out[0].Body.Key(); key != msg.Raw("echo-r1-i1-h0").Key() {
		t.Fatalf("mimic round 1 body %q, want the fresh shadow's first broadcast", key)
	}
	if dup := sb.Sends(1, 2, v1); dup != nil {
		t.Fatalf("duplicate mimic step in the same round sent %v", dup)
	}
	// Round 2: the shadow must have heard slots 0 and 1 plus its own
	// round-1 broadcast before preparing.
	out2 := sb.Sends(2, 2, view(3, nil))
	if len(out2) != 3 {
		t.Fatalf("mimic round 2 sent %d", len(out2))
	}
	if key := out2[0].Body.Key(); key != msg.Raw("echo-r2-i1-h3").Key() {
		t.Fatalf("mimic round 2 body %q, want a shadow that heard 3 messages", key)
	}
}

// TestScriptBehaviorMimicFeed: Feed restricts the shadow's inbox to the
// listed slots (self-delivery stays), and distinct (value, feed) pairs
// drive independent twins.
func TestScriptBehaviorMimicFeed(t *testing.T) {
	sb := &adversary.ScriptBehavior{
		Steps: []adversary.ScriptSend{
			{Round: 1, Slot: 2, Mimic: true, Value: 0, Feed: []int{0}, To: []int{0}},
			{Round: 1, Slot: 2, Mimic: true, Value: 1, Feed: []int{1}, To: []int{1}},
			{Round: 2, Slot: 2, Mimic: true, Value: 0, Feed: []int{0}, To: []int{0}},
			{Round: 2, Slot: 2, Mimic: true, Value: 1, Feed: []int{1}, To: []int{1}},
		},
		Factory: func(slot int) engine.Process { return &scriptEcho{} },
	}
	v1 := view(3, map[int][]msg.Send{
		0: {msg.Broadcast(msg.Raw("a"))},
		1: {msg.Broadcast(msg.Raw("b"))},
	})
	out := sb.Sends(1, 2, v1)
	if len(out) != 2 {
		t.Fatalf("split mimic round 1 sent %d, want one per arm", len(out))
	}
	out2 := sb.Sends(2, 2, view(3, nil))
	if len(out2) != 2 {
		t.Fatalf("split mimic round 2 sent %d", len(out2))
	}
	// Each twin heard exactly its feed slot plus itself: h2, with its
	// own input.
	byTo := map[int]string{}
	for _, ts := range out2 {
		byTo[ts.ToSlot] = ts.Body.Key()
	}
	if byTo[0] != msg.Raw("echo-r2-i0-h2").Key() {
		t.Fatalf("arm 0 body %q", byTo[0])
	}
	if byTo[1] != msg.Raw("echo-r2-i1-h2").Key() {
		t.Fatalf("arm 1 body %q", byTo[1])
	}
}

func TestScriptBehaviorMimicNilFactory(t *testing.T) {
	sb := &adversary.ScriptBehavior{
		Steps: []adversary.ScriptSend{{Round: 1, Slot: 0, Mimic: true, Value: 1}},
	}
	if out := sb.Sends(1, 0, view(3, nil)); out != nil {
		t.Fatalf("nil Factory sent %v", out)
	}
}

func TestScriptDrops(t *testing.T) {
	sd := adversary.ScriptDrops{Edges: []adversary.DropEdge{
		{Round: 1, From: 0, To: 1},
		{Round: 0, From: 2, To: 0}, // wildcard round
	}}
	if !sd.Drop(1, 0, 1) || sd.Drop(2, 0, 1) {
		t.Fatal("explicit-round edge misapplied")
	}
	for round := 1; round <= 5; round++ {
		if !sd.Drop(round, 2, 0) {
			t.Fatalf("wildcard edge missed round %d", round)
		}
	}
	if sd.Drop(1, 1, 0) {
		t.Fatal("unlisted edge dropped")
	}

	rep := adversary.ScriptDrops{
		Edges:  []adversary.DropEdge{{Round: 2, From: 0, To: 1}},
		Repeat: true,
	}
	if rep.Drop(1, 0, 1) {
		t.Fatal("repeat leaked into an earlier round")
	}
	if !rep.Drop(2, 0, 1) || !rep.Drop(9, 0, 1) {
		t.Fatal("repeat did not extend the window's last round")
	}
	span := adversary.ScriptDrops{
		Edges:  []adversary.DropEdge{{Round: 1, From: 0, To: 1}},
		Repeat: true,
		Span:   2,
	}
	if span.Drop(9, 0, 1) {
		t.Fatal("Span with a clean final round repeated the earlier drop")
	}
}

// TestScriptDropsBatchMatchesScalar: the batched mask must agree with
// the scalar Drop on every (round, from, to) — the purity contract the
// engine's batched delivery path depends on.
func TestScriptDropsBatchMatchesScalar(t *testing.T) {
	sd := adversary.ScriptDrops{
		Edges: []adversary.DropEdge{
			{Round: 1, From: 0, To: 2},
			{Round: 2, From: 1, To: 0},
			{Round: 0, From: 3, To: 3},
		},
		Repeat: true,
	}
	n := 4
	fromSlots := make([]int32, n)
	for i := range fromSlots {
		fromSlots[i] = int32(i)
	}
	for round := 1; round <= 6; round++ {
		for to := 0; to < n; to++ {
			mask := make([]bool, n)
			sd.DropBatch(round, to, fromSlots, mask)
			for from := 0; from < n; from++ {
				if mask[from] != sd.Drop(round, from, to) {
					t.Fatalf("round %d %d->%d: batch %v, scalar %v",
						round, from, to, mask[from], sd.Drop(round, from, to))
				}
			}
		}
	}
}
