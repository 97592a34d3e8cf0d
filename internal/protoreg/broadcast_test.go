package protoreg_test

import (
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
	"homonyms/internal/trace"
)

// body is a test-built host body: it keys like the harness's own, a bare
// value under the primitive's tag.
type body struct {
	tag string
	v   hom.Value
}

func (b body) Key() string                 { return msg.ScratchKey(b) }
func (b body) BuildKey(kb *msg.KeyBuilder) { kb.Reset(b.tag).Value(b.v) }

// TestCheckReportsEachProperty feeds each registered broadcast checker
// hand-built accept logs that break exactly one property each, under
// Proposition 6's statements (authbcast) and Appendix A.3.1's
// (numbcast). System: five slots with identifiers 1, 2, 3, 3, 3 and
// inputs 0, 1, 0, 0, 1; slot 4 is Byzantine, so identifier 3 has f_3 = 1
// and two correct holders broadcasting 0 (α = 2 under A.3.1, 1 under
// Proposition 6). GST 1, eight rounds.
func TestCheckReportsEachProperty(t *testing.T) {
	const (
		na = iota - 1 // the case does not apply to the rule set
		ok
		correctness
		unforgeability
		relay
	)
	want := map[int]trace.Property{
		correctness:    trace.BroadcastCorrectness,
		unforgeability: trace.BroadcastUnforgeability,
		relay:          trace.BroadcastRelay,
	}
	cases := []struct {
		name string
		// mutate breaks the clean history; authbcast and numbcast are
		// the outcomes expected under each rule set (ok or the one
		// violated property).
		mutate              func(h history)
		authbcast, numbcast int
	}{
		{"clean", func(history) {}, ok, ok},
		{"missing accept", func(h history) {
			// Nobody accepts slot 0's superround-2 broadcast, so there is
			// nothing to relay.
			for _, host := range h.hosts {
				kept := host.Log[:0]
				for _, a := range host.Log {
					if !(a.ID == 1 && a.SR == 2) {
						kept = append(kept, a)
					}
				}
				host.Log = kept
			}
		}, correctness, correctness},
		{"forged under all-correct identifier", func(h history) {
			// Everywhere, so Relay holds.
			h.acceptAll(1, 9, 1, 1, 2)
		}, unforgeability, unforgeability},
		{"unrelayed", func(h history) {
			// Identifier 3 is untrusted, so this is no forgery.
			h.hosts[0].Log = append(h.hosts[0].Log, protoreg.Accept{ID: 3, Alpha: 1, Body: body{h.tag, 9}, SR: 1, Round: 2})
		}, relay, relay},
		{"deadline past the budget", func(h history) {
			h.hosts[0].Log = append(h.hosts[0].Log, protoreg.Accept{ID: 3, Alpha: 1, Body: body{h.tag, 9}, SR: 4, Round: 8})
		}, ok, ok},
		{"faulted holder is untrusted", func(h history) {
			// Slot 0 faulted: identifier 1 has no correct holder and
			// f_1 = 1, so an accept with α' = 1 of any value is within
			// the bound.
			h.res.Faulted = []int{0}
			h.acceptAll(1, 9, 1, 1, 2)
		}, ok, ok},
		{"multiplicity below alpha", func(h history) {
			// Every accept of identifier 3's broadcast counts one copy of
			// its two correct holders.
			for _, host := range h.hosts {
				for i := range host.Log {
					if host.Log[i].ID == 3 {
						host.Log[i].Alpha = 1
					}
				}
			}
		}, ok, correctness},
		// Proposition 6 reports no multiplicity but 1.
		{"multiplicity at alpha+f_i", func(h history) {
			h.acceptAll(3, 0, 1, 3, 2)
		}, na, ok},
		{"multiplicity above alpha+f_i", func(h history) {
			h.acceptAll(3, 0, 1, 4, 2)
		}, na, unforgeability},
		{"accept before T relayed at T+1", func(h history) {
			// GST 5 makes T = 3. An accept in superround 1 reaches the
			// others only in superround 4: past Proposition 6's
			// max(r+1, T) = 3, within A.3.1's max(r, T)+1 = 4.
			h.res.GST = 5
			h.hosts[0].Log = append(h.hosts[0].Log, protoreg.Accept{ID: 3, Alpha: 1, Body: body{h.tag, 9}, SR: 1, Round: 2})
			for _, host := range h.hosts[1:] {
				host.Log = append(host.Log, protoreg.Accept{ID: 3, Alpha: 1, Body: body{h.tag, 9}, SR: 1, Round: 8})
			}
		}, relay, ok},
	}

	for _, prim := range []struct {
		name, tag    string
		multiplicity bool
	}{{"authbcast", "abfuzz", false}, {"numbcast", "nbfuzz", true}} {
		proto, found := protoreg.Get(prim.name)
		if !found {
			t.Fatalf("%s is not registered", prim.name)
		}
		for _, tc := range cases {
			h := history{
				res: &engine.Result{
					Params:     hom.Params{N: 5, L: 3, T: 1, Synchrony: hom.PartiallySynchronous},
					Assignment: hom.Assignment{1, 2, 3, 3, 3},
					Inputs:     []hom.Value{0, 1, 0, 0, 1},
					Corrupted:  []int{4},
					Decisions:  make([]hom.Value, 5),
					Rounds:     8,
					GST:        1,
				},
				hosts: []*protoreg.BroadcastHost{{}, {}, {}, {}},
				tag:   prim.tag,
			}
			// The clean history: every host accepts every correct
			// broadcast of every superround within the superround, with
			// the multiplicity the rule set reports.
			for sr := 1; sr <= 4; sr++ {
				for _, b := range []struct {
					id    hom.Identifier
					v     hom.Value
					alpha int
				}{{1, 0, 1}, {2, 1, 1}, {3, 0, 2}} {
					if !prim.multiplicity {
						b.alpha = 1
					}
					h.acceptAll(b.id, b.v, sr, b.alpha, 2*sr)
				}
			}
			expect := tc.authbcast
			if prim.multiplicity {
				expect = tc.numbcast
			}
			if expect == na {
				continue
			}
			tc.mutate(h)
			procs := make([]engine.Process, 5)
			for s, host := range h.hosts {
				procs[s] = host
			}
			v := proto.Verdict(h.res, procs)
			switch {
			case expect == ok && !v.OK():
				t.Errorf("%s, %s: want no violation, got %s", prim.name, tc.name, v)
			case expect != ok && (len(v.Violations) != 1 || !v.Has(want[expect])):
				t.Errorf("%s, %s: want exactly a %s violation, got %s", prim.name, tc.name, want[expect], v)
			}
		}
	}
}

// history is a checker input: the result and the correct slots' hosts,
// whose bodies carry the primitive's tag.
type history struct {
	res   *engine.Result
	hosts []*protoreg.BroadcastHost
	tag   string
}

// acceptAll appends the same accept to every host's log.
func (h history) acceptAll(id hom.Identifier, v hom.Value, sr, alpha, round int) {
	for _, host := range h.hosts {
		host.Log = append(host.Log, protoreg.Accept{ID: id, Alpha: alpha, Body: body{h.tag, v}, SR: sr, Round: round})
	}
}
