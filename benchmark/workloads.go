package main

import (
	"fmt"
	"math/rand"

	"homonyms/internal/adversary"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/inject"
)

// seedCycle is the number of distinct seeds a workload rotates through:
// op i uses seed base + (i mod seedCycle). Timed passes always run whole
// cycles, so sums over a pass are sums over the same executions.
const seedCycle = 4

// workload describes one benchmark workload. Engine workloads fill
// params and the knobs below; table1_matrix sets matrix instead.
type workload struct {
	name string
	why  string

	params hom.Params
	gst    int
	// counting selects engine.Counting(); otherwise the default
	// Concrete() representation runs.
	counting bool
	// byzantine corrupts the first holder of each of the identifiers
	// 1..t and makes it equivocate (seeded per op seed). The corrupted
	// set is deliberately not random: psynchom decides at the end of an
	// 8-round phase, and which phase depends on whether the early
	// leaders (identifiers 1, 2, ...) are Byzantine, so a random set
	// moves one op between 24 and 48 rounds; the counting slow path's
	// allocations swing with the corrupted slot's group in the same
	// way. With round-robin assignment identifiers 1..t are the ones
	// with the most holders, so every Byzantine slot sits inside a
	// homonym group — the paper's hard case.
	byzantine bool
	// dropProb > 0 installs RandomDrops on the adversary.
	dropProb float64
	// timeModel, when set, replaces Lockstep.
	timeModel engine.TimeModel
	// faults builds the op seed's fault schedule (nil: fault-free).
	faults func(p hom.Params, seed int64) *inject.Schedule
	// twin additionally runs the op under Concrete() in the traced
	// pass (engine.counting_vs_concrete_x).
	twin bool
	// msgLayer replays one op's recorded traffic through the msg
	// package directly (n is small enough to record).
	msgLayer bool
	// warmupCycles is how many seed cycles a set-up runs before the
	// timed loop (default 1). A workload whose op takes a millisecond
	// runs more, so that setup_s is not a few milliseconds of noise.
	warmupCycles int

	matrix *matrixSpec
}

// matrixSpec is the table1_matrix grid.
type matrixSpec struct {
	ns, ts []int
}

// workloads is the benchmark's workload table, in BENCHMARK.json order.
// quick scales every n down (to at most 4096) for the smoke run; the
// protocols, boundaries and fault kinds stay the same.
func workloads(quick bool) []*workload {
	scale := func(n, quickN int) int {
		if quick {
			return quickN
		}
		return n
	}
	matrixNs := []int{4, 5}
	if quick {
		matrixNs = []int{4}
	}
	return []*workload{
		{
			name:   "sync_homonym_n64",
			why:    "short sync T(EIG) run at the sync boundary l=3t+1 with 16 homonyms per identifier: set-up, stamp, shared fill and protocol all visible",
			params: hom.Params{N: 64, L: 4, T: 1, Synchrony: hom.Synchronous},
			gst:    1, byzantine: true, msgLayer: true,
			warmupCycles: 50,
		},
		{
			name:   "psync_boundary_n16",
			why:    "Fig. 5 one identifier above the psync bound (2l=26, n+3t=25): protocol receive dominates, so engine changes must not move it",
			params: hom.Params{N: scale(16, 7), L: scale(13, 6), T: scale(3, 1), Synchrony: hom.PartiallySynchronous},
			gst:    9, byzantine: true, msgLayer: true,
		},
		{
			name:      "esync_faults_n16",
			why:       "same router under drops, crash-recovery, omissions, link delays and retransmission: link conditions do the work, fills and protocol do not",
			params:    hom.Params{N: scale(16, 10), L: scale(16, 10), T: scale(3, 2), Synchrony: hom.PartiallySynchronous},
			gst:       5,
			dropProb:  0.3,
			timeModel: engine.EventuallySynchronous{Bound: 2, Timeout: 2, MaxAttempts: 3},
			faults:    esyncFaults,
			msgLayer:  true,
		},
		{
			name:     "counting_n1e6_l8",
			why:      "a real protocol deciding at n=10^6 on the counting fast path: O(n) assembly and slot bookkeeping, router and protocol bypassed",
			params:   hom.Params{N: scale(1_000_000, 4096), L: 8, T: 1, Synchrony: hom.Synchronous},
			gst:      1,
			counting: true,
		},
		{
			name:     "counting_byz_n1024",
			why:      "counting slow path: one Byzantine slot forces every slot through the concrete router while the protocol stays collapsed",
			params:   hom.Params{N: scale(1024, 256), L: 8, T: 1, Synchrony: hom.Synchronous},
			gst:      1,
			counting: true, byzantine: true, twin: true,
		},
		{
			name:   "table1_matrix",
			why:    "all four Table-1 variants through the exec pool: per-cell cost over every protocol family, the only multi-threaded workload",
			matrix: &matrixSpec{ns: matrixNs, ts: []int{1}},
		},
	}
}

func workloadByName(name string, quick bool) (*workload, error) {
	for _, w := range workloads(quick) {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opInput is everything one op seed fixes ahead of the timed loop: the
// assignment, the input vector, the adversary and the fault schedule.
// Building it is set-up; an op only consumes it.
type opInput struct {
	seed       int64
	assignment hom.Assignment
	inputs     []hom.Value
	adversary  engine.Adversary
	faults     *inject.Schedule
}

// buildInput derives one op seed's inputs. The same seed always yields
// the same input.
func (w *workload) buildInput(seed int64) *opInput {
	p := w.params
	rng := rand.New(rand.NewSource(seed))
	in := &opInput{
		seed:       seed,
		assignment: hom.RoundRobinAssignment(p.N, p.L),
		inputs:     make([]hom.Value, p.N),
	}
	// Exactly half the slots propose 1, at seeded positions: with no
	// initial majority, validity cannot shortcut the decision, and the
	// op's cost does not swing with the draw (a Bernoulli vector that
	// happens to lean one way decides a psync phase earlier).
	for i := range in.inputs {
		in.inputs[i] = hom.Value(i % 2)
	}
	rng.Shuffle(len(in.inputs), func(i, j int) { in.inputs[i], in.inputs[j] = in.inputs[j], in.inputs[i] })
	if w.byzantine || w.dropProb > 0 {
		comp := &adversary.Composite{}
		if w.byzantine {
			ids := make(adversary.OnePerIdentifier, p.T)
			for i := range ids {
				ids[i] = hom.Identifier(i + 1)
			}
			comp.Selector = ids
			comp.Behavior = adversary.Equivocate{Seed: seed}
		}
		if w.dropProb > 0 {
			comp.Drops = adversary.RandomDrops{Seed: seed, Prob: w.dropProb}
		}
		in.adversary = comp
	}
	if w.faults != nil {
		in.faults = w.faults(p, seed)
	}
	return in
}

// esyncFaults is the esync_faults_n16 schedule: one crash-recovery,
// three 50% send+receive omissions and 24 per-link delays with
// By in {0, 2, 4}, all inside the pre-GST rounds 1..4. The delayed
// links all leave the four slots that crash or omit, so exactly four
// slots are faulted and the rest are held to the agreement properties.
// The non-faulted slots outnumber either input value (n-4 > n/2 for
// n >= 10), so they are never unanimous by accident of which slots are
// exempt, and validity is checked against the decision the whole
// system reached.
func esyncFaults(p hom.Params, seed int64) *inject.Schedule {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perm := rng.Perm(p.N)
	s := &inject.Schedule{
		Crashes: []inject.Crash{{Slot: perm[0], Round: 1 + rng.Intn(2), Recover: 1 + rng.Intn(2)}},
	}
	for _, slot := range perm[1:4] {
		s.Omissions = append(s.Omissions, inject.Omission{
			Slot: slot, Send: true, Receive: true, From: 1, Until: 4, Prob: 0.5, Seed: seed + int64(slot),
		})
	}
	sources := perm[:4]
	seen := make(map[[2]int]bool)
	for len(s.Delays) < 24 {
		from, to := sources[rng.Intn(len(sources))], rng.Intn(p.N)
		if from == to || seen[[2]int{from, to}] {
			continue
		}
		seen[[2]int{from, to}] = true
		first := 1 + rng.Intn(3)
		s.Delays = append(s.Delays, inject.Delay{
			FromSlot: from, ToSlot: to, From: first, Until: first + rng.Intn(5-first), By: 2 * rng.Intn(3),
		})
	}
	return s
}
