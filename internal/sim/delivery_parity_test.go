package engine_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/refmodel"
)

// parityFlooder broadcasts a fresh payload each round, occasionally
// targets its own identifier group, and decides after a fixed round, so
// parity runs exercise ToAll and ToIdentifier routing plus the decision
// bookkeeping.
type parityFlooder struct {
	id     hom.Identifier
	seen   int
	decide int
}

func (f *parityFlooder) Init(ctx engine.Context) { f.id = ctx.ID }
func (f *parityFlooder) Prepare(round int) []msg.Send {
	sends := []msg.Send{msg.Broadcast(msg.Raw(fmt.Sprintf("p|%d|%d", f.id, round)))}
	if round%3 == 0 {
		sends = append(sends, msg.SendTo(f.id, msg.Raw(fmt.Sprintf("g|%d", round))))
	}
	return sends
}
func (f *parityFlooder) Receive(round int, in *msg.Inbox) {
	f.seen += in.TotalCount()
	if f.decide == 0 && round >= 6 && f.seen > 0 {
		f.decide = f.seen
	}
}
func (f *parityFlooder) Decision() (hom.Value, bool) {
	if f.decide == 0 {
		return hom.NoValue, false
	}
	return hom.Value(f.decide % 2), true
}

// perMessageOnly wraps an adversary, hiding any BatchDropper
// implementation so the engine is forced through the per-message shim.
type perMessageOnly struct{ inner engine.Adversary }

func (p perMessageOnly) Corrupt(pa hom.Params, a hom.Assignment, in []hom.Value) []int {
	return p.inner.Corrupt(pa, a, in)
}
func (p perMessageOnly) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	return p.inner.Sends(round, slot, view)
}
func (p perMessageOnly) Drop(round, from, to int) bool { return p.inner.Drop(round, from, to) }

// parityConfigs covers the routing feature matrix: fault-free broadcast,
// pre-GST random drops, targeted partition drops, a visibility mask,
// numerate+restricted reception, and traffic recording.
func parityConfigs() map[string]engine.Config {
	configs := map[string]engine.Config{}

	base := func(n, l int) engine.Config {
		inputs := make([]hom.Value, n)
		for i := range inputs {
			inputs[i] = hom.Value(i % 2)
		}
		return engine.Config{
			Params:     hom.Params{N: n, L: l, T: 0, Synchrony: hom.Synchronous},
			Assignment: hom.RoundRobinAssignment(n, l),
			Inputs:     inputs,
			NewProcess: func(int) engine.Process { return &parityFlooder{} },
			MaxRounds:  12,
		}
	}

	configs["faultfree_broadcast"] = base(9, 4)

	psync := base(8, 5)
	psync.Params.T = 2
	psync.Params.Synchrony = hom.PartiallySynchronous
	psync.GST = 7
	psync.Adversary = &adversary.Composite{
		Selector: adversary.FirstT{},
		Behavior: adversary.Noise{Seed: 11},
		Drops:    adversary.RandomDrops{Seed: 42, Prob: 0.35},
	}
	configs["psync_random_drops"] = psync

	targeted := base(7, 3)
	targeted.Params.T = 1
	targeted.Params.Synchrony = hom.PartiallySynchronous
	targeted.GST = 6
	targeted.Adversary = &adversary.Composite{
		Selector: adversary.Slots{2},
		Behavior: adversary.MimicFlood{},
		Drops:    adversary.TargetedDrops{Targets: []int{0, 4}, Inbound: true, Outbound: true},
	}
	configs["psync_targeted_drops"] = targeted

	partition := base(6, 6)
	partition.Params.T = 1
	partition.Params.Synchrony = hom.PartiallySynchronous
	partition.GST = 9
	partition.Adversary = &adversary.Composite{
		Selector: adversary.Slots{5},
		Behavior: adversary.Silent{},
		Drops:    adversary.PartitionDrops{GroupOf: func(slot int) int { return slot % 2 }},
	}
	configs["psync_partition_drops"] = partition

	vis := base(8, 4)
	vis.Visibility = func(from, to int) bool { return (from+to)%5 != 0 || from == to }
	configs["visibility_mask"] = vis

	restricted := base(7, 2)
	restricted.Params.T = 1
	restricted.Params.Numerate = true
	restricted.Params.RestrictedByzantine = true
	restricted.Params.Synchrony = hom.PartiallySynchronous
	restricted.GST = 5
	restricted.Adversary = &adversary.Composite{
		Selector: adversary.FirstT{},
		Behavior: adversary.Noise{Seed: 3},
		Drops:    adversary.RandomDrops{Seed: 9, Prob: 0.25},
	}
	configs["numerate_restricted"] = restricted

	traffic := base(5, 3)
	traffic.RecordTraffic = true
	configs["record_traffic"] = traffic

	// Recording plus pre-GST drops plus Byzantine multi-sends: the
	// batched path must reconstruct per-message delivery's send-major
	// Delivered order from its delivery bitmap under every mask.
	trafficDrops := base(8, 3)
	trafficDrops.RecordTraffic = true
	trafficDrops.Params.T = 2
	trafficDrops.Params.Synchrony = hom.PartiallySynchronous
	trafficDrops.GST = 8
	trafficDrops.Adversary = &adversary.Composite{
		Selector: adversary.FirstT{},
		Behavior: adversary.MimicFlood{},
		Drops:    adversary.RandomDrops{Seed: 77, Prob: 0.4},
	}
	configs["record_traffic_drops"] = trafficDrops

	return configs
}

// holdToRefmodel runs cfg through run and through the reference
// interpreter, which delivers per message and fills every inbox on its
// own, and fails unless the two Results agree field for field, recorded
// traffic by content and in order.
func holdToRefmodel(t *testing.T, cfg engine.Config, run func(engine.Config) (*engine.Result, error)) {
	t.Helper()
	got, err := run(cfg)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	want, err := refmodel.Run(cfg)
	if err != nil {
		t.Fatalf("refmodel: %v", err)
	}
	render := func(r *engine.Result) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%+v|%v|%v|%v|%v|%v|%v|%d|%d|%v|%q|%+v|%v", r.Params, r.Assignment, r.Inputs, r.Corrupted, r.Faulted,
			r.Decisions, r.DecidedAt, r.Rounds, r.GST, r.AllDecided, r.Stopped, r.Stats, r.SlotHashes)
		for _, d := range r.Traffic {
			fmt.Fprintf(&b, "|%d:%d>%d:%s", d.Round, d.FromSlot, d.ToSlot, d.Msg.Key())
		}
		return b.String()
	}
	if g, w := render(got), render(want); g != w {
		t.Errorf("engine result diverges from refmodel:\nengine:   %.2000s\nrefmodel: %.2000s", g, w)
	}
}

// TestBatchedPerMessageParity pins the tentpole invariant: batched
// delivery produces the Result of per-message delivery — decisions,
// rounds, statistics and traffic included — on every configuration of
// the routing feature matrix.
func TestBatchedPerMessageParity(t *testing.T) {
	for name, cfg := range parityConfigs() {
		t.Run(name, func(t *testing.T) { holdToRefmodel(t, cfg, run) })
	}
}

// TestBatchDropperMatchesShim pins the adversary-side half of the parity
// contract: the vectorised DropBatch implementations on the concrete
// drop policies produce exactly the verdicts of their per-message Drop.
// The same configuration runs once with the Composite (which implements
// engine.BatchDropper) and once wrapped so only per-message Drop is visible,
// forcing the engine's fallback shim; the Results must match.
func TestBatchDropperMatchesShim(t *testing.T) {
	for name, cfg := range parityConfigs() {
		if cfg.Adversary == nil {
			continue
		}
		t.Run(name, func(t *testing.T) {
			direct := cfg
			shimmed := cfg
			shimmed.Adversary = perMessageOnly{inner: cfg.Adversary}

			got, err := run(direct)
			if err != nil {
				t.Fatalf("vectorised: %v", err)
			}
			want, err := run(shimmed)
			if err != nil {
				t.Fatalf("shimmed: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("vectorised drop mask diverges from per-message shim:\nvectorised: %+v\nshimmed:    %+v", got, want)
			}
		})
	}
}
