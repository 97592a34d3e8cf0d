package authbcast

import (
	"errors"
	"testing"
	"testing/quick"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(3, 1); !errors.Is(err, ErrResilience) {
		t.Fatalf("New(3,1) err = %v, want ErrResilience", err)
	}
	if _, err := New(4, 1); err != nil {
		t.Fatalf("New(4,1): %v", err)
	}
}

// deliver feeds a raw message list as an innumerate inbox.
func deliver(t *testing.T, b *Broadcaster, round int, raw []msg.Message) []Accept {
	t.Helper()
	return b.Ingest(round, msg.NewInbox(false, raw))
}

func echoFrom(from hom.Identifier, body msg.Payload, sr int, origin hom.Identifier) msg.Message {
	return msg.Message{ID: from, Body: EchoPayload{Body: body, SR: sr, ID: origin}}
}

func TestAcceptAfterQuorumEchoes(t *testing.T) {
	// l = 4, t = 1: accept threshold l-t = 3 distinct identifiers.
	b, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := msg.Raw("m")
	// Superround 1, round 2: echoes from identifiers 1 and 2 only.
	acc := deliver(t, b, 2, []msg.Message{
		echoFrom(1, body, 1, 3),
		echoFrom(2, body, 1, 3),
	})
	if len(acc) != 0 {
		t.Fatalf("accepted with 2 echo identifiers: %v", acc)
	}
	// Round 3: a third identifier echoes; cumulative count reaches 3.
	acc = deliver(t, b, 3, []msg.Message{
		echoFrom(4, body, 1, 3),
	})
	if len(acc) != 1 {
		t.Fatalf("expected 1 accept, got %v", acc)
	}
	if acc[0].ID != 3 || acc[0].SR != 1 || acc[0].Body.Key() != body.Key() {
		t.Fatalf("accept mismatch: %+v", acc[0])
	}
	// No duplicate accepts later.
	acc = deliver(t, b, 4, []msg.Message{echoFrom(3, body, 1, 3)})
	if len(acc) != 0 {
		t.Fatalf("duplicate accept: %v", acc)
	}
}

func TestEchoAmplification(t *testing.T) {
	// After l-2t = 2 identifiers echo, the broadcaster itself starts
	// echoing (the relay mechanism).
	b, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := msg.Raw("m")
	deliver(t, b, 2, []msg.Message{
		echoFrom(1, body, 1, 3),
		echoFrom(2, body, 1, 3),
	})
	out := b.Outgoing(3)
	found := false
	for _, p := range out {
		if ep, ok := p.Body.(EchoPayload); ok && ep.ID == 3 && ep.SR == 1 && ep.Body.Key() == body.Key() {
			found = true
		}
	}
	if !found {
		t.Fatal("broadcaster did not amplify echo after l-2t support")
	}
}

func TestInitTriggersEcho(t *testing.T) {
	b, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := msg.Raw("m")
	// Init from identifier 2 in round 1 (init round of superround 1).
	deliver(t, b, 1, []msg.Message{{ID: 2, Body: InitPayload{Body: body}}})
	out := b.Outgoing(2)
	if len(out) != 1 {
		t.Fatalf("Outgoing(2) returned %d payloads, want 1 echo", len(out))
	}
	ep, ok := out[0].Body.(EchoPayload)
	if !ok || ep.ID != 2 || ep.SR != 1 {
		t.Fatalf("unexpected outgoing payload %+v", out[0])
	}
	// The echo repeats in every subsequent round.
	out = b.Outgoing(5)
	if len(out) != 1 {
		t.Fatalf("echo not repeated in round 5: %v", out)
	}
}

func TestInitIgnoredInSecondRound(t *testing.T) {
	b, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, b, 2, []msg.Message{{ID: 2, Body: InitPayload{Body: msg.Raw("m")}}})
	if out := b.Outgoing(3); len(out) != 0 {
		t.Fatalf("init received in a non-init round triggered echo: %v", out)
	}
}

func TestBroadcastEmitsInitOnInitRound(t *testing.T) {
	b, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Broadcast(msg.Raw("m"))
	// Round 2 is not an init round: the init must wait.
	for _, p := range b.Outgoing(2) {
		if _, ok := p.Body.(InitPayload); ok {
			t.Fatal("init emitted in a non-init round")
		}
	}
	found := false
	for _, p := range b.Outgoing(3) {
		if _, ok := p.Body.(InitPayload); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("init not emitted at the next init round")
	}
}

func TestUnforgeabilityNeedsQuorum(t *testing.T) {
	// Fewer than l-t identifiers echoing never produces an accept, no
	// matter how many rounds pass (t identifiers are Byzantine and echo
	// forever).
	b, err := New(7, 2) // accept threshold 5
	if err != nil {
		t.Fatal(err)
	}
	body := msg.Raw("forged")
	for round := 2; round < 30; round++ {
		acc := deliver(t, b, round, []msg.Message{
			echoFrom(1, body, 1, 6),
			echoFrom(2, body, 1, 6),
			echoFrom(3, body, 1, 6),
			echoFrom(4, body, 1, 6),
		})
		if len(acc) != 0 {
			t.Fatalf("accepted with only 4 < 5 echo identifiers at round %d", round)
		}
	}
}

func TestEchoValidation(t *testing.T) {
	b, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := msg.Raw("m")
	// Future superround tag and invalid identifiers are discarded.
	deliver(t, b, 2, []msg.Message{
		echoFrom(1, body, 5, 3),  // future superround
		echoFrom(2, body, 0, 3),  // superround 0
		echoFrom(3, body, 1, 0),  // invalid origin identifier
		echoFrom(4, body, 1, 99), // out-of-range origin identifier
	})
	if b.TupleCount() != 0 {
		t.Fatalf("invalid echoes created %d tuples", b.TupleCount())
	}
}

func TestAcceptDeterministicOrder(t *testing.T) {
	// Multiple accepts in the same round come out sorted by tuple key.
	check := func(seed uint8) bool {
		b, err := New(4, 1)
		if err != nil {
			return false
		}
		bodies := []msg.Payload{msg.Raw("a"), msg.Raw("b"), msg.Raw("c")}
		var raw []msg.Message
		for _, body := range bodies {
			for id := hom.Identifier(1); id <= 3; id++ {
				raw = append(raw, echoFrom(id, body, 1, 2))
			}
		}
		// Rotate raw order by seed; accept order must not change.
		k := int(seed) % len(raw)
		rotated := append(append([]msg.Message(nil), raw[k:]...), raw[:k]...)
		acc := deliver(t, b, 2, rotated)
		if len(acc) != 3 {
			return false
		}
		for i := 1; i < len(acc); i++ {
			prevKey := EchoPayload{Body: acc[i-1].Body, SR: acc[i-1].SR, ID: acc[i-1].ID}.Key()
			curKey := EchoPayload{Body: acc[i].Body, SR: acc[i].SR, ID: acc[i].ID}.Key()
			if prevKey >= curKey {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
