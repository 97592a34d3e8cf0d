package authbcast

import (
	"fmt"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
)

// init registers the broadcast primitive itself as a fuzz target on the
// shared broadcast harness, whose checker verifies Proposition 6's
// Correctness, Unforgeability and Relay. Inside the claimed region
// l > 3t a violation is a real bug; between construction floor and claim
// (2t < l <= 3t) violations are expected lower-bound demonstrations.
func init() {
	protoreg.RegisterBroadcast(protoreg.Broadcast{
		Name: "authbcast",
		Claims: func(p hom.Params) (bool, string) {
			if p.L > 3*p.T {
				return true, fmt.Sprintf("l = %d > 3t = %d (Proposition 6)", p.L, 3*p.T)
			}
			return false, fmt.Sprintf("l = %d <= 3t = %d: echo thresholds forgeable", p.L, 3*p.T)
		},
		Constructible: func(p hom.Params) (bool, string) {
			if p.L <= 2*p.T {
				return false, "echo threshold l-2t must be positive"
			}
			return true, "ok"
		},
		Tag:   "abfuzz",
		Layer: func(p hom.Params) protoreg.BroadcastLayer { return fuzzLayer{newBroadcaster(p.L, p.T)} },
		Forge: func(p hom.Params, round int, body msg.Payload) []msg.Payload {
			sr := hom.Superround(round)
			out := []msg.Payload{InitPayload{Body: body}}
			for id := 1; id <= p.L; id++ {
				out = append(out, EchoPayload{Body: body, SR: sr, ID: hom.Identifier(id)})
			}
			return out
		},
	})
}

// fuzzLayer adapts a Broadcaster to the shared fuzz host. Every accept
// has multiplicity 1.
type fuzzLayer struct{ *Broadcaster }

// Outgoing copies the broadcaster's sends out of its reused buffer.
func (f fuzzLayer) Outgoing(round int) []msg.Send {
	return append([]msg.Send(nil), f.Broadcaster.Outgoing(round)...)
}

// Ingest hands the broadcaster what the round stamped and logs its
// accepts.
func (f fuzzLayer) Ingest(round int, in *msg.Inbox, log []protoreg.Accept) []protoreg.Accept {
	for _, a := range f.Broadcaster.Ingest(round, in.Delta()) {
		log = append(log, protoreg.Accept{ID: a.ID, Alpha: 1, Body: a.Body, SR: a.SR, Round: round})
	}
	return log
}
