package engine_test

import (
	"reflect"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/classical"
	"homonyms/internal/engine"
	"homonyms/internal/exec"
	"homonyms/internal/hom"
	"homonyms/internal/psynchom"
	"homonyms/internal/synchom"
)

// internConfigs is one synchronous T(EIG) execution with an
// equivocating homonym and one partially synchronous Figure-5 execution
// with pre-GST drops, both recording their traffic.
func internConfigs(t *testing.T) map[string]engine.Config {
	t.Helper()
	alg, err := classical.NewEIG(4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pSync := hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous}
	syncFactory, err := synchom.New(alg, pSync)
	if err != nil {
		t.Fatal(err)
	}
	pPsync := hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}
	psyncFactory := psynchom.New(pPsync, psynchom.Options{})
	return map[string]engine.Config{
		"sync-transform": {
			Params:        pSync,
			Assignment:    hom.StackedAssignment(7, 4),
			Inputs:        []hom.Value{0, 1, 0, 1, 0, 1, 0},
			NewProcess:    syncFactory,
			Adversary:     &adversary.Composite{Selector: adversary.Slots{2}, Behavior: adversary.Equivocate{Seed: 3}},
			MaxRounds:     synchom.Rounds(alg) + 3,
			RecordTraffic: true,
		},
		"psync-drops": {
			Params:     pPsync,
			Assignment: hom.RandomAssignment(6, 5, 9),
			Inputs:     []hom.Value{1, 0, 1, 0, 1, 0},
			NewProcess: psyncFactory,
			Adversary: &adversary.Composite{Selector: adversary.Slots{4}, Behavior: adversary.MimicFlood{},
				Drops: adversary.RandomDrops{Seed: 5, Prob: 0.5}},
			GST:           17,
			MaxRounds:     hom.PhaseRounds(pPsync, 17),
			RecordTraffic: true,
		},
	}
}

// internKeys runs cfg under rep and returns the execution's intern table
// in KeyID order.
func internKeys(cfg engine.Config, rep engine.StateRep) ([]string, error) {
	probe := &engine.InternProbe{StateRep: rep}
	_, err := engine.Run(append(cfg.Options(), engine.WithStateRep(probe))...)
	return probe.Keys, err
}

// TestInternTableEngineEquivalence pins the symbolization contract: both
// state representations intern the canonical keys of one execution in the
// same order, so the dense KeyID assignment — and with it the interned
// inbox order — is identical between Concrete and Counting.
func TestInternTableEngineEquivalence(t *testing.T) {
	for name, cfg := range internConfigs(t) {
		concrete, err := internKeys(cfg, engine.Concrete())
		if err != nil {
			t.Fatalf("%s: concrete: %v", name, err)
		}
		counting, err := internKeys(cfg, engine.Counting())
		if err != nil {
			t.Fatalf("%s: counting: %v", name, err)
		}
		if len(concrete) == 0 {
			t.Fatalf("%s: execution interned no keys", name)
		}
		if !reflect.DeepEqual(concrete, counting) {
			t.Fatalf("%s: KeyID assignment diverged between representations", name)
		}
	}
}

// TestInternTableWorkerCountDeterminism runs the same batch of executions
// through exec.MapN at several worker counts and checks every execution's
// intern table is byte-identical: KeyID assignment is a pure function of
// the execution, untouched by pool recycling or scheduling.
func TestInternTableWorkerCountDeterminism(t *testing.T) {
	cfgs := internConfigs(t)
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	const repeat = 4 // run each config several times to force pool reuse
	runAll := func(workers int) [][]string {
		snaps, err := exec.MapN(len(names)*repeat, workers, func(i int) ([]string, error) {
			return internKeys(cfgs[names[i%len(names)]], engine.Concrete())
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

// TestPooledInternerRecyclingInvisible runs the same config twice, its
// pooled interner recycled through an unrelated execution in between,
// and checks results are identical: a recycled, reset interner must
// leave no trace of its previous life.
func TestPooledInternerRecyclingInvisible(t *testing.T) {
	cfgs := internConfigs(t)
	run := func(cfg engine.Config) *engine.Result {
		res, err := engine.Run(append(cfg.Options(), engine.WithStateRep(engine.Concrete()))...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for name, cfg := range cfgs {
		first := run(cfg)
		// Pollute the pools with a different execution.
		for other, ocfg := range cfgs {
			if other != name {
				run(ocfg)
				break
			}
		}
		second := run(cfg)
		if !reflect.DeepEqual(first.Decisions, second.Decisions) ||
			first.Rounds != second.Rounds || first.Stats != second.Stats {
			t.Fatalf("%s: recycled interner changed the execution", name)
		}
	}
}
