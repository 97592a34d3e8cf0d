package adversary_test

import (
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// TestBehavioursSteadyStateAllocFree holds the flooding behaviours to
// building a round's sends in the View's buffer: once a first round has
// sized it, a round allocates nothing, the equivocators' draws included.
// Each behaviour gets a fresh View, so none runs in a buffer an earlier
// one sized.
func TestBehavioursSteadyStateAllocFree(t *testing.T) {
	const n = 64
	bySlot := make([][]msg.Send, n)
	for s := 1; s < n; s += 2 {
		bySlot[s] = []msg.Send{msg.Broadcast(msg.Raw("b")), msg.SendTo(1, msg.Raw("i"))}
	}
	// Two payloads per value, and a nil one skipped: more than one send
	// per value and recipient.
	made := []msg.Payload{msg.Raw("p"), nil, msg.Raw("q")}
	flood := adversary.ValueFlood{
		Domain: []hom.Value{0, 1, 2},
		Make:   func(int, hom.Value) []msg.Payload { return made },
	}
	for _, tc := range []struct {
		name string
		b    adversary.Behavior
		want int // sends per round
	}{
		{"equivocate", adversary.Equivocate{Seed: 3}, n},
		{"keyequivocate", adversary.KeyEquivocate{Seed: 3}, n},
		{"mimicflood", adversary.MimicFlood{}, n * n / 2},
		{"valueflood/multi-payload", flood, 3 * 2 * n},
	} {
		v := engine.NewView(params(n, 8, 1), hom.RoundRobinAssignment(n, 8), nil, 1, bySlot, []int{0})
		round := 1
		step := func() {
			if got := len(tc.b.Sends(round, 0, v)); got != tc.want {
				t.Fatalf("%s: %d sends, want %d", tc.name, got, tc.want)
			}
			round++
		}
		step()
		if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
			t.Errorf("%s: %.1f allocations per round, want 0", tc.name, allocs)
		}
	}
}
