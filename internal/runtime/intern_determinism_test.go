package engine_test

import (
	"reflect"
	"testing"

	"homonyms/internal/exec"
	"homonyms/internal/msg"
)

// TestInternTableEngineEquivalence pins the symbolization contract: both
// state representations intern the canonical keys of one execution in the
// same order, so the dense KeyID assignment — and with it the interned
// inbox order — is identical between Concrete and Counting.
func TestInternTableEngineEquivalence(t *testing.T) {
	for name, cfg := range equivalentConfigs(t) {
		seqIntern := msg.NewInterner()
		seqCfg := cfg
		seqCfg.Interner = seqIntern
		if _, err := run(seqCfg); err != nil {
			t.Fatalf("%s: concrete: %v", name, err)
		}
		countIntern := msg.NewInterner()
		countCfg := cfg
		countCfg.Interner = countIntern
		if _, err := runCounting(countCfg); err != nil {
			t.Fatalf("%s: counting: %v", name, err)
		}
		if seqIntern.Len() == 0 {
			t.Fatalf("%s: execution interned no keys", name)
		}
		if !reflect.DeepEqual(seqIntern.Snapshot(), countIntern.Snapshot()) {
			t.Fatalf("%s: KeyID assignment diverged between representations", name)
		}
	}
}

// TestInternTableWorkerCountDeterminism runs the same batch of executions
// through exec.MapN at several worker counts and checks every execution's
// intern table is byte-identical: KeyID assignment is a pure function of
// the execution, untouched by pool recycling or scheduling.
func TestInternTableWorkerCountDeterminism(t *testing.T) {
	cfgs := equivalentConfigs(t)
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	const repeat = 4 // run each config several times to force pool reuse
	runAll := func(workers int) [][]string {
		snaps, err := exec.MapN(len(names)*repeat, workers, func(i int) ([]string, error) {
			cfg := cfgs[names[i%len(names)]]
			it := msg.NewInterner()
			cfg.Interner = it
			if _, err := run(cfg); err != nil {
				return nil, err
			}
			return it.Snapshot(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	base := runAll(1)
	for _, workers := range []int{2, 5} {
		got := runAll(workers)
		for i := range base {
			if !reflect.DeepEqual(base[i], got[i]) {
				t.Fatalf("execution %d: intern table differs between workers=1 and workers=%d", i, workers)
			}
		}
	}
}

// TestPooledInternerRecyclingInvisible runs the same config twice with
// engine-pooled interners (Config.Interner nil) sandwiched around an
// unrelated execution, and checks results are identical: a recycled,
// reset interner must leave no trace of its previous life.
func TestPooledInternerRecyclingInvisible(t *testing.T) {
	cfgs := equivalentConfigs(t)
	for name, cfg := range cfgs {
		first, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Pollute the pools with a different execution.
		for other, ocfg := range cfgs {
			if other != name {
				if _, err := run(ocfg); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		second, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Decisions, second.Decisions) ||
			first.Rounds != second.Rounds || first.Stats != second.Stats {
			t.Fatalf("%s: recycled interner changed the execution", name)
		}
	}
}
