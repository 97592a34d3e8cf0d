//go:build !race

package attacks

import (
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// TestPartitionAdversarySteadyStateAllocFree holds the Figure-4 replay to
// building each round's sends in the View's buffer: after a first round
// has sized it, replaying a round of α and β traffic — broadcasts to a
// whole camp and identifier-targeted sends — allocates nothing. The race
// detector makes sync.Pool drop items, so the count only holds without
// it.
func TestPartitionAdversarySteadyStateAllocFree(t *testing.T) {
	const n, rounds = 12, 4
	ids := hom.RoundRobinAssignment(n, 4)
	camp := make([]int, n)
	for s := 1; s < n; s++ {
		camp[s] = 1 + s%2 // even slots X, odd slots Y; slot 0 Byzantine
	}
	trace := func(tag string) [][][]msg.Send {
		tr := make([][][]msg.Send, rounds)
		for r := range tr {
			tr[r] = [][]msg.Send{{msg.Broadcast(msg.Raw(tag)), msg.SendTo(2, msg.Raw(tag+"|2")), msg.Broadcast(msg.Raw(tag + "|b"))}}
		}
		return tr
	}
	a := &partitionAdversary{byzSlots: []int{0}, camp: camp, gammaIDs: ids, alphaTrace: trace("a"), betaTrace: trace("b")}
	v := engine.NewView(hom.Params{N: n, L: 4, T: 1}, ids, nil, 1, make([][]msg.Send, n), []int{0})
	// Slot 0 holds identifier 1: α's two broadcasts reach the five even
	// slots, β's the six odd ones, and β's send to identifier 2 its
	// holders, slots 1, 5 and 9 — all odd, so α's reaches no one.
	const want = 2*5 + 2*6 + 3
	round := 0
	step := func() {
		round = round%rounds + 1
		if got := len(a.Sends(round, 0, v)); got != want {
			t.Fatalf("round %d: %d sends, want %d", round, got, want)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("%.1f allocations per round, want 0", allocs)
	}
}
