package numbcast

import (
	"errors"
	"testing"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(3, 1, 1); !errors.Is(err, ErrResilience) {
		t.Fatalf("New(3,1,1) err = %v, want ErrResilience", err)
	}
	if _, err := New(4, 2, 1); err != nil {
		t.Fatalf("New(4,2,1): %v", err)
	}
}

func bundleMsg(id hom.Identifier, b *Bundle) msg.Message {
	return msg.Message{ID: id, Body: b}
}

func ingest(t *testing.T, b *Broadcaster, round int, raw []msg.Message) []Accept {
	t.Helper()
	in := msg.NewInbox(true, raw)
	var recv []Delivery
	for i := 0; i < in.Len(); i++ {
		recv = append(recv, Delivery{ID: in.SenderAt(i), Bundle: in.BodyAt(i).(*Bundle), Copies: in.CountAt(i)})
	}
	return b.Ingest(round, recv)
}

func TestInitCountingUsesCopies(t *testing.T) {
	// n = 7, t = 2. Three clone processes with identifier 1 broadcast the
	// same m: the init count must be 3.
	b, err := New(7, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	body := msg.Raw("m")
	initBundle := NewBundle([]InitTuple{{Body: body}}, nil)
	raw := []msg.Message{
		bundleMsg(1, initBundle),
		bundleMsg(1, initBundle),
		bundleMsg(1, initBundle),
	}
	ingest(t, b, 1, raw) // init round of superround 1
	out := b.Outgoing(2)
	bundle, ok := out.(*Bundle)
	if !ok {
		t.Fatalf("Outgoing(2) = %T, want *Bundle", out)
	}
	if len(bundle.Echoes) != 1 {
		t.Fatalf("echoes = %d, want 1", len(bundle.Echoes))
	}
	e := bundle.Echoes[0]
	if e.H != 1 || e.A != 3 || e.K != 1 {
		t.Fatalf("echo = %+v, want (h=1, a=3, k=1)", e)
	}
}

func TestAcceptRequiresCopiesThreshold(t *testing.T) {
	// n = 4, t = 1: accept needs n-t = 3 message copies with alpha' >= alpha.
	b, err := New(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := msg.Raw("m")
	echo := func(a int) *Bundle {
		return NewBundle(nil, []EchoTuple{{H: 1, A: a, Body: body, K: 1}})
	}
	// Two copies only: no accept (round 2 = accept round).
	acc := ingest(t, b, 2, []msg.Message{
		bundleMsg(1, echo(2)),
		bundleMsg(2, echo(2)),
	})
	if len(acc) != 0 {
		t.Fatalf("accepted below threshold: %v", acc)
	}
	// Three copies with alphas {2, 2, 1}: alpha2 = max alpha with 3
	// supporting copies = 1; with 2 copies supporting alpha=2 it is not
	// enough for alpha=2.
	acc = ingest(t, b, 4, []msg.Message{
		bundleMsg(1, echo(2)),
		bundleMsg(2, echo(2)),
		bundleMsg(3, echo(1)),
	})
	if len(acc) != 1 {
		t.Fatalf("accept count = %d, want 1", len(acc))
	}
	if acc[0].Alpha != 1 || acc[0].ID != 1 || acc[0].SR != 1 {
		t.Fatalf("accept = %+v, want alpha=1 id=1 sr=1", acc[0])
	}
}

func TestAcceptAlphaPrefersHighSupportedValue(t *testing.T) {
	// Copies with alphas {3, 3, 3, 1}: alpha2 = 3 (three copies >= 3).
	b, err := New(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := msg.Raw("m")
	echo := func(a int) *Bundle {
		return NewBundle(nil, []EchoTuple{{H: 2, A: a, Body: body, K: 1}})
	}
	acc := ingest(t, b, 2, []msg.Message{
		bundleMsg(1, echo(3)),
		bundleMsg(2, echo(3)),
		bundleMsg(3, echo(3)),
		bundleMsg(4, echo(1)),
	})
	if len(acc) != 1 || acc[0].Alpha != 3 {
		t.Fatalf("accept = %+v, want alpha=3", acc)
	}
}

func TestNoAcceptInInitRound(t *testing.T) {
	b, err := New(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := msg.Raw("m")
	echo := NewBundle(nil, []EchoTuple{{H: 1, A: 1, Body: body, K: 1}})
	acc := ingest(t, b, 3, []msg.Message{ // round 3 is an init round
		bundleMsg(1, echo),
		bundleMsg(2, echo),
		bundleMsg(3, echo),
	})
	if len(acc) != 0 {
		t.Fatalf("accepted during an init round (unicity): %v", acc)
	}
}

func TestEstimateAdoption(t *testing.T) {
	// n-2t = 2 copies suffice to adopt an estimate into the local table
	// (relay), but not to accept.
	b, err := New(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := msg.Raw("m")
	echo := NewBundle(nil, []EchoTuple{{H: 1, A: 2, Body: body, K: 1}})
	ingest(t, b, 2, []msg.Message{
		bundleMsg(1, echo),
		bundleMsg(2, echo),
	})
	out := b.Outgoing(3)
	bundle, ok := out.(*Bundle)
	if !ok || len(bundle.Echoes) != 1 || bundle.Echoes[0].A != 2 {
		t.Fatalf("estimate not adopted: %v", out)
	}
}

func TestInvalidBundlesDiscarded(t *testing.T) {
	b, err := New(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := msg.Raw("m")
	// Duplicate echo tuples for the same (h, m, k) make the bundle
	// invalid — a Byzantine copy-inflation attempt.
	bad := NewBundle(nil, []EchoTuple{
		{H: 1, A: 5, Body: body, K: 1},
		{H: 1, A: 7, Body: body, K: 1},
	})
	ingest(t, b, 2, []msg.Message{
		bundleMsg(1, bad), bundleMsg(2, bad), bundleMsg(3, bad),
	})
	if b.TableSize() != 0 {
		t.Fatal("invalid bundle was processed")
	}
	// Init tuples outside an init round invalidate the bundle.
	badInit := NewBundle([]InitTuple{{Body: body}}, nil)
	acc := ingest(t, b, 2, []msg.Message{bundleMsg(1, badInit)})
	if len(acc) != 0 || b.TableSize() != 0 {
		t.Fatal("init outside init round was processed")
	}
	// Future-superround echoes invalidate the bundle.
	future := NewBundle(nil, []EchoTuple{{H: 1, A: 1, Body: body, K: 9}})
	ingest(t, b, 2, []msg.Message{bundleMsg(1, future)})
	if b.TableSize() != 0 {
		t.Fatal("future echo was processed")
	}
}

func TestBundleKeyCanonical(t *testing.T) {
	body := msg.Raw("m")
	a := NewBundle(
		[]InitTuple{{Body: msg.Raw("x")}, {Body: msg.Raw("y")}},
		[]EchoTuple{{H: 2, A: 1, Body: body, K: 1}, {H: 1, A: 1, Body: body, K: 1}},
	)
	b := NewBundle(
		[]InitTuple{{Body: msg.Raw("y")}, {Body: msg.Raw("x")}},
		[]EchoTuple{{H: 1, A: 1, Body: body, K: 1}, {H: 2, A: 1, Body: body, K: 1}},
	)
	if a.Key() != b.Key() {
		t.Fatal("bundle key depends on construction order")
	}
}

func TestOutgoingNilWhenEmpty(t *testing.T) {
	b, err := New(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out := b.Outgoing(1); out != nil {
		t.Fatalf("empty broadcaster produced %v", out)
	}
}

func TestUnforgeabilityBound(t *testing.T) {
	// One Byzantine identifier-1 process (f1 = 1) inflates its alpha; a
	// correct receiver's accepted alpha must not exceed alpha_true + f1
	// when thresholds require corroboration from correct copies.
	// n = 4, t = 1: accept needs 3 copies. Byzantine contributes 1 copy
	// with alpha = 100; two correct copies carry alpha = 1: accepted
	// alpha is 1 (the third-highest supported), far below the forgery.
	b, err := New(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := msg.Raw("m")
	acc := ingest(t, b, 2, []msg.Message{
		bundleMsg(1, NewBundle(nil, []EchoTuple{{H: 1, A: 100, Body: body, K: 1}})),
		bundleMsg(2, NewBundle(nil, []EchoTuple{{H: 1, A: 1, Body: body, K: 1}})),
		bundleMsg(3, NewBundle(nil, []EchoTuple{{H: 1, A: 1, Body: body, K: 1}})),
	})
	if len(acc) != 1 || acc[0].Alpha != 1 {
		t.Fatalf("accept = %+v, want alpha=1 despite inflation", acc)
	}
}
