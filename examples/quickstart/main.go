// Quickstart: solve Byzantine agreement among 6 processes that share only
// 5 authenticated identifiers (two processes are homonyms), tolerating one
// Byzantine process in the partially synchronous model.
//
//	go run ./examples/quickstart
//
// Where to go next: examples/crossover, examples/sharedomains and
// examples/keycompromise explore the model's stranger corners.
package main

import (
	"fmt"
	"log"

	"homonyms/internal/adversary"
	"homonyms/internal/core"
	"homonyms/internal/hom"
)

func main() {
	// Model: n=6 processes, l=5 identifiers, t=1 Byzantine, partially
	// synchronous. Table 1 says this needs 2l > n+3t — 10 > 9, so it is
	// solvable (barely: with one fewer identifier it would not be).
	params := hom.Params{
		N:         6,
		L:         5,
		T:         1,
		Synchrony: hom.PartiallySynchronous,
	}
	fmt.Println("model:   ", params)
	fmt.Println("table 1: ", core.SolvabilityReason(params))

	// One Byzantine process that forwards inconsistent copies of real
	// protocol messages, plus heavy message loss until round 17.
	adv := &adversary.Composite{
		Selector: adversary.RandomT{Seed: 42},
		Behavior: adversary.Equivocate{Seed: 42},
		Drops:    adversary.RandomDrops{Seed: 42, Prob: 0.5},
	}

	result, err := core.Run(core.Config{
		Params:    params,
		Inputs:    []hom.Value{0, 1, 1, 0, 1, 0},
		Adversary: adv,
		GST:       17,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("algorithm:", result.Algorithm)
	fmt.Println("decision: ", result.Decision)
	fmt.Println("verdict:  ", result.Verdict)
	for s, v := range result.Sim.Decisions {
		if result.Sim.IsCorrupted(s) {
			fmt.Printf("  process %d (identifier %d): byzantine\n", s, result.Sim.Assignment[s])
			continue
		}
		fmt.Printf("  process %d (identifier %d): decided %d in round %d\n",
			s, result.Sim.Assignment[s], v, result.Sim.DecidedAt[s])
	}
}
