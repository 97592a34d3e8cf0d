package engine_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// keeper plays slots 0 and 1. Slot 0 returns, in odd rounds, one list of
// its own that it keeps and re-returns across rounds and executions, and
// builds its even rounds' sends in its View buffer; slot 1 always builds
// in the buffer.
type keeper struct{ kept []msg.TargetedSend }

func (a *keeper) Corrupt(hom.Params, hom.Assignment, []hom.Value) []int { return []int{0, 1} }

func (a *keeper) Sends(round, slot int, v *engine.View) []msg.TargetedSend {
	if slot == 0 && round%2 == 1 {
		return a.kept
	}
	out := v.SendBuffer(v.Params.N)
	for to := range v.Params.N {
		out = append(out, msg.TargetedSend{ToSlot: to, Body: msg.Raw(fmt.Sprintf("buf|%d|%d|%d", slot, round, to))})
	}
	return out
}

func (a *keeper) Drop(int, int, int) bool { return false }

// TestAdversaryOwnedSendsLeftIntact holds the engine to reusing only the
// send buffers it hands out: a list an adversary owns and re-returns,
// round after round and execution after execution — with an execution
// between whose slots build every send in their buffers, drawing the
// pooled store the first released — is never written, and the
// execution that returns it delivers the same traffic each time.
func TestAdversaryOwnedSendsLeftIntact(t *testing.T) {
	const n = 12
	adv := &keeper{}
	for to := range n {
		adv.kept = append(adv.kept, msg.TargetedSend{ToSlot: n - 1 - to, Body: msg.Raw(fmt.Sprintf("kept|%d", to))})
	}
	want := slices.Clone(adv.kept)
	run := func(a engine.Adversary) string {
		t.Helper()
		cfg := countingConfig(true, 6)
		cfg.Params.T = 2
		cfg.Adversary = a
		cfg.RecordTraffic = true
		res, err := engine.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.WriteString(resultKey(res))
		for _, d := range res.Traffic {
			fmt.Fprintf(&b, "\n%d %d>%d %s", d.Round, d.FromSlot, d.ToSlot, d.Msg.Body.Key())
		}
		return b.String()
	}
	first := run(adv)
	if !strings.Contains(first, "kept|0") || !strings.Contains(first, "buf|0|2|") {
		t.Fatal("slot 0 delivered neither its own list nor its buffer")
	}
	run(&adversary.Composite{Selector: adversary.Slots{0, 1}, Behavior: adversary.MimicFlood{}})
	if again := run(adv); again != first {
		t.Error("the execution returning an owned list delivered other traffic the second time")
	}
	if !slices.Equal(adv.kept, want) {
		t.Errorf("the adversary's own list was written: %v, want %v", adv.kept, want)
	}
}
