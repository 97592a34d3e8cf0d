package numbcast

import (
	"fmt"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
)

// init registers the multiplicity-broadcast primitive as a fuzz target
// on the shared broadcast harness, whose checker verifies Appendix
// A.3.1's statements: Correctness and Unforgeability carry multiplicity
// bounds (alpha' >= alpha, alpha' <= alpha + f_i). The claimed region is
// n > 3t with numerate reception and restricted Byzantine processes; the
// fuzzer probes innumerate and unrestricted variants where copy counting
// (and with it the bounds) breaks.
func init() {
	protoreg.RegisterBroadcast(protoreg.Broadcast{
		Name: "numbcast",
		Claims: func(p hom.Params) (bool, string) {
			if !p.Numerate {
				return false, "multiplicity broadcast needs numerate reception"
			}
			if !p.RestrictedByzantine {
				return false, "unrestricted Byzantine processes can inflate copy counts"
			}
			if p.N <= 3*p.T {
				return false, fmt.Sprintf("n = %d <= 3t = %d", p.N, 3*p.T)
			}
			return true, fmt.Sprintf("n = %d > 3t = %d (Appendix A.3.1)", p.N, 3*p.T)
		},
		ClaimsFaults: func(p hom.Params, byz, faulted int) (bool, string) {
			// The multiplicity bound alpha+f_i counts untrusted holders;
			// crashed/omitting holders join f_i, so the n > 3t condition
			// absorbs them while byz+faulted fits t.
			return protoreg.DefaultClaimsFaults(p, byz, faulted)
		},
		Constructible: func(p hom.Params) (bool, string) {
			if p.N <= 2*p.T {
				return false, "echo threshold n-2t must be positive"
			}
			return true, "ok"
		},
		Tag:          "nbfuzz",
		Multiplicity: true,
		Layer:        func(p hom.Params) protoreg.BroadcastLayer { return &fuzzLayer{Broadcaster: newBroadcaster(p.N, p.T)} },
		Forge: func(p hom.Params, round int, body msg.Payload) []msg.Payload {
			sr := hom.Superround(round)
			echoes := make([]EchoTuple, 0, p.L)
			for id := 1; id <= p.L; id++ {
				echoes = append(echoes, EchoTuple{H: hom.Identifier(id), A: p.N, Body: body, K: sr})
			}
			return []msg.Payload{NewBundle([]InitTuple{{Body: body}}, echoes)}
		},
	})
}

// fuzzLayer adapts a Broadcaster to the shared fuzz host.
type fuzzLayer struct {
	*Broadcaster
	recv []Delivery // Ingest's scratch
}

// Outgoing sends the round's bundle, if any, to everyone.
func (f *fuzzLayer) Outgoing(round int) []msg.Send {
	if pl := f.Broadcaster.Outgoing(round); pl != nil {
		return []msg.Send{msg.Broadcast(pl)}
	}
	return nil
}

// Ingest hands the broadcaster each bundle of the inbox as one delivery
// and logs its accepts.
func (f *fuzzLayer) Ingest(round int, in *msg.Inbox, log []protoreg.Accept) []protoreg.Accept {
	f.recv = f.recv[:0]
	for i, k := 0, in.Len(); i < k; i++ {
		if b, ok := in.BodyAt(i).(*Bundle); ok {
			f.recv = append(f.recv, Delivery{ID: in.SenderAt(i), Bundle: b, Copies: in.CountAt(i)})
		}
	}
	for _, a := range f.Broadcaster.Ingest(round, f.recv) {
		log = append(log, protoreg.Accept{ID: a.ID, Alpha: a.Alpha, Body: a.Body, SR: a.SR, Round: round})
	}
	return log
}
