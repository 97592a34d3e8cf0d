package solvability

import (
	"fmt"
	"testing"

	"homonyms/internal/adversary"
	"homonyms/internal/core"
	"homonyms/internal/exec"
	"homonyms/internal/hom"
)

// TestMatrixParallelDeterminism pins the scheduler contract: the same
// seeded grid evaluated sequentially (one worker at a time, in order) and
// through the parallel Matrix must produce byte-identical cells, in the
// same order. Run under -race in CI this also exercises the scheduler for
// data races across full EvaluateCell executions.
func TestMatrixParallelDeterminism(t *testing.T) {
	ns, ts := []int{4, 5, 6}, []int{1}
	suite := SuiteSize{Assignments: 2, Behaviors: 2}
	const seed = 11
	for _, v := range Variants() {
		params := GridParams(ns, ts, v)
		sequential := make([]string, 0, len(params))
		for _, p := range params {
			cell, err := EvaluateCell(p, suite, seed)
			if err != nil {
				t.Fatalf("%s %v: %v", v.Name, p, err)
			}
			sequential = append(sequential, fmt.Sprintf("%+v", *cell))
		}
		parallel, err := Matrix(ns, ts, v, suite, seed)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if len(parallel) != len(sequential) {
			t.Fatalf("%s: parallel produced %d cells, sequential %d", v.Name, len(parallel), len(sequential))
		}
		for i, cell := range parallel {
			if got := fmt.Sprintf("%+v", *cell); got != sequential[i] {
				t.Fatalf("%s cell %d diverged under parallelism:\nsequential: %s\nparallel:   %s",
					v.Name, i, sequential[i], got)
			}
		}
	}
}

// TestRunParallelDeterminism drives full core.Run executions through
// exec.MapN and checks every field of the result — decisions, rounds and
// message statistics — against the same execution run inline. A scheduler
// that leaked state between workers, or an engine whose scratch reuse were
// racy, would diverge here.
func TestRunParallelDeterminism(t *testing.T) {
	p := hom.Params{N: 6, L: 5, T: 1, Synchrony: hom.PartiallySynchronous}
	run := func(seed int64) (string, error) {
		inputs := make([]hom.Value, p.N)
		for i := range inputs {
			inputs[i] = hom.Value(i % 2)
		}
		res, err := core.Run(core.Config{
			Params: p,
			Inputs: inputs,
			Adversary: &adversary.Composite{
				Selector: adversary.RandomT{Seed: seed},
				Behavior: adversary.Equivocate{Seed: seed},
				Drops:    adversary.RandomDrops{Seed: seed, Prob: 0.4},
			},
			GST: 5,
		})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("corrupted=%v decisions=%v decidedAt=%v rounds=%d stats=%+v",
			res.Sim.Corrupted, res.Sim.Decisions, res.Sim.DecidedAt, res.Sim.Rounds, res.Sim.Stats), nil
	}

	const runs = 16
	sequential := make([]string, runs)
	for i := range sequential {
		s, err := run(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		sequential[i] = s
	}
	parallel, err := exec.MapN(runs, exec.Workers(), func(i int) (string, error) {
		return run(int64(i))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sequential {
		if parallel[i] != sequential[i] {
			t.Fatalf("run %d diverged under exec.MapN:\nsequential: %s\nparallel:   %s",
				i, sequential[i], parallel[i])
		}
	}
}
