// Crossover demonstrates the paper's headline anomaly: with t = 1 fault
// and ℓ = 4 identifiers in the partially synchronous model, Byzantine
// agreement is solvable for n = 4 processes but becomes IMPOSSIBLE when a
// fifth — perfectly correct — process joins. Adding correct processes can
// break agreement, because the fifth process must share an identifier and
// the bound is 2ℓ > n + 3t.
//
// Part 1 runs the Figure-5 algorithm at n = 4 under an adversarial suite
// and shows it succeeding. Part 2 moves to n = 5 and runs the paper's
// Figure-4 partition attack, exhibiting two groups of correct processes
// deciding 0 and 1.
//
//	go run ./examples/crossover
package main

import (
	"fmt"
	"log"

	"homonyms/internal/adversary"
	"homonyms/internal/attacks"
	"homonyms/internal/core"
	"homonyms/internal/hom"
	"homonyms/internal/psynchom"
)

func main() {
	fmt.Println("=== part 1: n = 4, l = 4, t = 1 — solvable ===")
	p4 := hom.Params{N: 4, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}
	fmt.Println("table 1:", core.SolvabilityReason(p4))
	res, err := core.Run(core.Config{
		Params: p4,
		Inputs: []hom.Value{0, 1, 1, 0},
		Adversary: &adversary.Composite{
			Selector: adversary.Slots{3},
			Behavior: adversary.Equivocate{Seed: 5},
			Drops:    adversary.RandomDrops{Seed: 5, Prob: 0.5},
		},
		GST: 17,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("verdict:", res.Verdict)
	fmt.Printf("all correct processes decided %d\n\n", res.Decision)

	fmt.Println("=== part 2: n = 5, l = 4, t = 1 — one more CORRECT process ===")
	p5 := hom.Params{N: 5, L: 4, T: 1, Synchrony: hom.PartiallySynchronous}
	fmt.Println("table 1:", core.SolvabilityReason(p5))
	factory := psynchom.New(p5, psynchom.Options{})
	rep, err := attacks.Partition(p5, factory, 12*hom.RoundsPerPhase)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partition attack: camp X %v decides 0, camp Y %v decides 1\n", rep.XSlots, rep.YSlots)
	fmt.Println("gamma verdict:", rep.Verdict)
	if rep.Succeeded() {
		fmt.Println("\n==> the SAME algorithm that was correct at n=4 loses agreement at n=5:")
		fmt.Println("    more correct processes made the problem unsolvable (Theorem 13).")
	}
}
