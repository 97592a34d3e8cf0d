package numbcast

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// keyBuilderKey is a bundle's key as NewBundle wrote it before segments:
// tuples sorted by their bodies' keys and written through a KeyBuilder.
// The segment writer must reproduce it byte for byte.
func keyBuilderKey(inits []msg.Payload, echoes []EchoTuple) string {
	is := append([]msg.Payload(nil), inits...)
	es := append([]EchoTuple(nil), echoes...)
	sort.Slice(is, func(a, b int) bool { return is[a].Key() < is[b].Key() })
	sort.Slice(es, func(a, b int) bool {
		x, y := es[a], es[b]
		if x.H != y.H {
			return x.H < y.H
		}
		if x.K != y.K {
			return x.K < y.K
		}
		if x.Body.Key() != y.Body.Key() {
			return x.Body.Key() < y.Body.Key()
		}
		return x.A < y.A
	})
	kb := msg.NewKey("numbundle").Int(len(is))
	for _, m := range is {
		kb.Nested(m)
	}
	for _, et := range es {
		kb.Identifier(et.H).Int(et.A).Int(et.K).Nested(et.Body)
	}
	return kb.String()
}

// testBodies are tuple bodies whose keys carry the separator and escape
// bytes, and pairs that sort one way raw and the other way escaped ("x|"
// against "xa"), next to a scratch-keyed body.
var testBodies = []msg.Payload{
	msg.Raw("x|"), msg.Raw("xa"), msg.Raw(`x\`), msg.Raw("x|y"), msg.Raw(""), msg.Raw(`a\|b`),
	msg.Raw("x"), fuzzValue{V: 0}, fuzzValue{V: 1}, fuzzValue{V: hom.NoValue},
}

// tableTuples lists the echoes a table must send: its cells with α > 0.
func tableTuples(b *Broadcaster) []EchoTuple {
	var out []EchoTuple
	for _, c := range b.tab.cells {
		if c.alpha > 0 {
			out = append(out, EchoTuple{H: c.h, A: c.alpha, Body: c.body, K: c.k})
		}
	}
	return out
}

// stripped copies tuples without their segments, as a caller outside the
// package builds them.
func stripped(b *Bundle) ([]InitTuple, []EchoTuple) {
	var is []InitTuple
	var es []EchoTuple
	for _, it := range b.Inits {
		is = append(is, InitTuple{Body: it.Body})
	}
	for _, et := range b.Echoes {
		es = append(es, EchoTuple{H: et.H, A: et.A, Body: et.Body, K: et.K})
	}
	return is, es
}

// TestOutgoingKeyMatchesNewBundle builds generated cell tables — bodies
// whose escaped and raw keys sort differently, α = 0 cells, pending inits
// — and holds Outgoing's bundle to the KeyBuilder-written key of the
// table's tuples, and to NewBundle of the same tuples built outside the
// package.
func TestOutgoingKeyMatchesNewBundle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for iter := 0; iter < 500; iter++ {
		b := newBroadcaster(7, 2)
		for c := rng.Intn(12); c > 0; c-- {
			body := testBodies[rng.Intn(len(testBodies))]
			h, k := hom.Identifier(1+rng.Intn(4)), 1+rng.Intn(4)
			ci := b.tab.cell(b.tab.tuple(b.tab.bodyID(body, nil), h, k), h, body, nil, k)
			b.tab.cells[ci].alpha = rng.Intn(3)
			b.tab.dirty = true
		}
		var pending []msg.Payload
		for m := rng.Intn(3); m > 0; m-- {
			body := testBodies[rng.Intn(len(testBodies))]
			if !containsKey(pending, body) {
				pending = append(pending, body)
				b.Broadcast(body)
			}
		}
		round := 1 + rng.Intn(6)
		if round%2 == 0 {
			pending = nil
		}
		echoes := tableTuples(b)
		out := b.Outgoing(round)
		if len(pending) == 0 && len(echoes) == 0 {
			if out != nil {
				t.Fatalf("iter %d: empty table sent %q", iter, out.Key())
			}
			continue
		}
		want := keyBuilderKey(pending, echoes)
		if got := out.Key(); got != want {
			t.Fatalf("iter %d: Outgoing key\n%q\nKeyBuilder key\n%q", iter, got, want)
		}
		if got := NewBundle(stripped(out.(*Bundle))).Key(); got != want {
			t.Fatalf("iter %d: NewBundle key\n%q\nKeyBuilder key\n%q", iter, got, want)
		}
	}
}

func containsKey(ps []msg.Payload, p msg.Payload) bool {
	for _, q := range ps {
		if q.Key() == p.Key() {
			return true
		}
	}
	return false
}

// TestOutgoingStandsWhileUnchanged drives a broadcaster through generated
// rounds of deliveries and Broadcasts: Outgoing must return the previous
// round's *Bundle exactly when no init is pending, the previous bundle
// carried none, and no α changed in between — and a new bundle, written
// from the table, whenever one of them did.
func TestOutgoingStandsWhileUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bodies := []msg.Payload{fuzzValue{V: 0}, fuzzValue{V: 1}, msg.Raw("m|1")}
	alphas := func(b *Broadcaster) string { return fmt.Sprint(tableTuples(b)) }
	stood, rebuilt := 0, 0
	for iter := 0; iter < 100; iter++ {
		b := newBroadcaster(7, 2) // n−2t = 3 copies adopt, n−t = 5 accept
		var prev msg.Payload
		prevInits, before := false, alphas(b)
		for round := 1; round <= 16; round++ {
			inits := false
			if round%2 == 1 && rng.Intn(3) == 0 {
				b.Broadcast(bodies[rng.Intn(len(bodies))])
				inits = true
			}
			out := b.Outgoing(round)
			changed := inits || prevInits || alphas(b) != before
			switch {
			case !changed && out != prev:
				t.Fatalf("iter %d round %d: nothing changed, but Outgoing built a new bundle", iter, round)
			case changed && out != nil && out == prev:
				t.Fatalf("iter %d round %d: the table changed, but Outgoing re-sent the previous bundle", iter, round)
			case out != nil:
				var pending []msg.Payload
				for _, it := range out.(*Bundle).Inits {
					pending = append(pending, it.Body)
				}
				if want := keyBuilderKey(pending, tableTuples(b)); out.Key() != want {
					t.Fatalf("iter %d round %d: bundle %q, table says %q", iter, round, out.Key(), want)
				}
			}
			if changed {
				rebuilt++
			} else {
				stood++
			}
			prev, prevInits = out, inits

			// Deliveries: the sent bundle back, plus echoes of random
			// tuples whose copies sometimes reach the adoption threshold.
			before = alphas(b)
			var in []Delivery
			if out != nil {
				in = append(in, Delivery{ID: 1, Bundle: out.(*Bundle), Copies: 1 + rng.Intn(3)})
			}
			for d := rng.Intn(4); d > 0; d-- {
				et := EchoTuple{H: hom.Identifier(1 + rng.Intn(3)), A: 1 + rng.Intn(4), Body: bodies[rng.Intn(len(bodies))], K: 1 + rng.Intn(Superround(round))}
				in = append(in, Delivery{ID: hom.Identifier(1 + rng.Intn(3)), Bundle: NewBundle(nil, []EchoTuple{et}), Copies: 1 + rng.Intn(3)})
			}
			b.Ingest(round, in)
		}
	}
	if stood == 0 || rebuilt == 0 {
		t.Fatalf("generated rounds never exercised both sides: %d standing, %d rebuilt", stood, rebuilt)
	}
}

// TestResolvedTupleStillValidated re-delivers tuples a receiver has
// already resolved — segment seen, tuple indexed — in bundles the round's
// rules discard: a future superround, a negative α, a duplicate, an init
// outside an init round. Finding a tuple by lookup must skip no rule.
func TestResolvedTupleStillValidated(t *testing.T) {
	var kb msg.KeyBuilder
	body := fuzzValue{V: 1}
	seg := newSegment(&kb, body)
	echo := func(a, k int) EchoTuple { return EchoTuple{H: 2, A: a, Body: body, K: k, seg: seg} }
	b, _ := New(4, 2, 1)
	known := &Bundle{Inits: []InitTuple{{Body: body, seg: seg}}, Echoes: []EchoTuple{echo(3, 1), echo(3, 3)}}
	if !b.resolve(known, 5) {
		t.Fatal("setup: a valid superround-3 bundle was discarded")
	}
	for name, bad := range map[string]*Bundle{
		"future superround": {Echoes: []EchoTuple{echo(3, 3)}},
		"negative alpha":    {Echoes: []EchoTuple{echo(-1, 1)}},
		"duplicate":         {Echoes: []EchoTuple{echo(3, 1), echo(1, 1)}},
		"init in round 4":   {Inits: []InitTuple{{Body: body, seg: seg}}, Echoes: []EchoTuple{echo(3, 1)}},
	} {
		if b.resolve(bad, 4) {
			t.Errorf("%s: a bundle of resolved tuples passed the round-4 rules", name)
		}
	}
	if !b.resolve(&Bundle{Echoes: []EchoTuple{echo(3, 1), echo(3, 2)}}, 4) {
		t.Error("a valid round-4 bundle of resolved tuples was discarded")
	}
}
