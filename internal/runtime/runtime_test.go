// The counting state representation held to the concrete one —
// results and traffic — plus the core façade's end-to-end checks. This directory holds tests only, like its sibling
// "sim".
package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/classical"
	"homonyms/internal/core"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/psynchom"
	"homonyms/internal/refmodel"
	"homonyms/internal/synchom"
	"homonyms/internal/trace"
)

// run executes a hand-built Config on the concrete representation.
func run(cfg engine.Config) (*engine.Result, error) {
	return engine.Run(cfg, engine.WithStateRep(engine.Concrete()))
}

// runCounting is run on the counting representation.
func runCounting(cfg engine.Config) (*engine.Result, error) {
	return engine.Run(cfg, engine.WithStateRep(engine.Counting()))
}

// equivalentConfigs builds a set of representative configurations used to
// assert Concrete/Counting equivalence.
func equivalentConfigs(t *testing.T) map[string]engine.Config {
	t.Helper()
	cfgs := make(map[string]engine.Config)

	// Synchronous homonym agreement via T(EIG).
	alg, err := classical.NewEIG(4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pSync := hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous}
	syncFactory, err := synchom.New(alg, pSync)
	if err != nil {
		t.Fatal(err)
	}
	cfgs["sync-transform"] = engine.Config{
		Params:     pSync,
		Assignment: hom.StackedAssignment(7, 4),
		Inputs:     []hom.Value{0, 1, 0, 1, 0, 1, 0},
		NewProcess: syncFactory,
		Adversary: &adversary.Composite{
			Selector: adversary.Slots{2},
			Behavior: adversary.Equivocate{Seed: 3},
		},
		MaxRounds:     synchom.Rounds(alg) + 3,
		RecordTraffic: true,
	}

	// Partially synchronous homonym agreement with drops.
	pPsync := hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}
	psyncFactory := psynchom.New(pPsync, psynchom.Options{})
	cfgs["psync-drops"] = engine.Config{
		Params:     pPsync,
		Assignment: hom.RandomAssignment(6, 5, 9),
		Inputs:     []hom.Value{1, 0, 1, 0, 1, 0},
		NewProcess: psyncFactory,
		Adversary: &adversary.Composite{
			Selector: adversary.Slots{4},
			Behavior: adversary.MimicFlood{},
			Drops:    adversary.RandomDrops{Seed: 5, Prob: 0.5},
		},
		GST:           17,
		MaxRounds:     hom.PhaseRounds(pPsync, 17),
		RecordTraffic: true,
	}
	return cfgs
}

// TestRuntimeMatchesSimExactly holds both representations to the
// reference interpreter: rounds, recorded GST, statistics, every slot's
// decision and round, and the traffic record entry for entry.
func TestRuntimeMatchesSimExactly(t *testing.T) {
	observe := func(r *engine.Result) string {
		var b strings.Builder
		fmt.Fprint(&b, r.Rounds, r.GST, r.Stats, r.Decisions, r.DecidedAt)
		for _, d := range r.Traffic {
			fmt.Fprint(&b, "|", d.Round, d.FromSlot, d.ToSlot, d.Msg.Key())
		}
		return b.String()
	}
	for name, cfg := range equivalentConfigs(t) {
		t.Run(name, func(t *testing.T) {
			want, err := refmodel.Run(cfg)
			if err != nil {
				t.Fatalf("refmodel: %v", err)
			}
			for rep, run := range map[string]func(engine.Config) (*engine.Result, error){"concrete": run, "counting": runCounting} {
				got, err := run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", rep, err)
				}
				if observe(got) != observe(want) {
					t.Fatalf("%s diverges from refmodel:\n got:  %.1500s\n want: %.1500s", rep, observe(got), observe(want))
				}
			}
		})
	}
}

func TestRuntimeVerdicts(t *testing.T) {
	cfg := equivalentConfigs(t)["psync-drops"]
	res, err := runCounting(cfg)
	if err != nil {
		t.Fatalf("counting run: %v", err)
	}
	if v := trace.Check(res); !v.OK() {
		t.Fatalf("%s", v)
	}
}

func TestRuntimeValidation(t *testing.T) {
	cfg := equivalentConfigs(t)["sync-transform"]
	cfg.MaxRounds = 0
	if _, err := runCounting(cfg); err == nil {
		t.Fatal("counting run accepted MaxRounds = 0")
	}
	cfg = equivalentConfigs(t)["sync-transform"]
	cfg.NewProcess = nil
	if _, err := runCounting(cfg); err == nil {
		t.Fatal("counting run accepted nil factory")
	}
}

func TestCoreSelectMatchesTable1(t *testing.T) {
	tests := []struct {
		p    hom.Params
		want core.AlgorithmID
		ok   bool
	}{
		{hom.Params{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous}, core.AlgSyncTransformEIG, true},
		{hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}, core.AlgPsyncHomonym, true},
		{hom.Params{N: 7, L: 2, T: 1, Synchrony: hom.PartiallySynchronous, Numerate: true, RestrictedByzantine: true}, core.AlgNumerate, true},
		{hom.Params{N: 7, L: 2, T: 1, Synchrony: hom.Synchronous, Numerate: true, RestrictedByzantine: true}, core.AlgNumerate, true},
		{hom.Params{N: 5, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}, "", false},
		{hom.Params{N: 7, L: 3, T: 1, Synchrony: hom.Synchronous}, "", false},
	}
	for _, tc := range tests {
		sel, err := core.Select(tc.p)
		if tc.ok {
			if err != nil {
				t.Fatalf("Select(%v): %v", tc.p, err)
			}
			if sel.Algorithm != tc.want {
				t.Fatalf("Select(%v) = %s, want %s", tc.p, sel.Algorithm, tc.want)
			}
			if sel.SuggestedRounds(1) <= 0 {
				t.Fatalf("Select(%v): non-positive round budget", tc.p)
			}
			continue
		}
		if err == nil {
			t.Fatalf("Select(%v) succeeded, want unsolvable error", tc.p)
		}
	}
}

func TestCoreRunEndToEnd(t *testing.T) {
	for _, p := range []hom.Params{
		{N: 7, L: 4, T: 1, Synchrony: hom.Synchronous},
		{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous},
		{N: 7, L: 2, T: 1, Synchrony: hom.PartiallySynchronous, Numerate: true, RestrictedByzantine: true},
	} {
		inputs := make([]hom.Value, p.N)
		for i := range inputs {
			inputs[i] = hom.Value(i % 2)
		}
		res, err := core.Run(core.Config{
			Params: p,
			Inputs: inputs,
			Adversary: &adversary.Composite{
				Selector: adversary.Slots{1},
				Behavior: adversary.Equivocate{Seed: 2},
			},
		})
		if err != nil {
			t.Fatalf("core.Run(%v): %v", p, err)
		}
		if !res.Verdict.OK() || !res.Decided {
			t.Fatalf("core.Run(%v): %s (decided=%v)", p, res.Verdict, res.Decided)
		}
	}
}

func TestCoreRunUnanimous(t *testing.T) {
	p := hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}
	res, err := core.RunUnanimous(p, 1, nil, 1)
	if err != nil {
		t.Fatalf("RunUnanimous: %v", err)
	}
	if !res.Decided || res.Decision != 1 {
		t.Fatalf("unanimous run decided %v (%v)", res.Decision, res.Decided)
	}
}
