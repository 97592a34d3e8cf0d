package fuzz

import (
	"math/rand"

	"homonyms/internal/inject"
	"homonyms/internal/protoreg"
)

// GenOptions bounds the generator's sampling space.
type GenOptions struct {
	// MaxN caps the process count (default 10).
	MaxN int
	// Protocols restricts the targets; empty means every registered one.
	Protocols []string
	// Chaos takes the eventually-synchronous timing branch on every
	// scenario, drawing from a dense row: the timing-machinery soak.
	Chaos bool
}

func (g GenOptions) maxN() int {
	if g.MaxN < 2 {
		return 10
	}
	return g.MaxN
}

func (g GenOptions) protocols() []string {
	if len(g.Protocols) == 0 {
		return protoreg.Names()
	}
	return g.Protocols
}

// Generate samples one constructible scenario from the rng. The rng is
// the scenario's whole source of randomness: the same rng state always
// yields the same scenario, and the scenario carries its own sub-seeds
// (AdvSeed, AssignSeed, drop seed) so replaying it needs no rng at all.
func Generate(rng *rand.Rand, opts GenOptions) Scenario {
	protos := opts.protocols()
	name := protos[rng.Intn(len(protos))]
	proto, _ := protoreg.Get(name)

	var sc Scenario
	// Rejection-sample a constructible shape; every draw below consumes
	// the rng even when rejected, so acceptance never depends on how the
	// rejected shape would have been used.
	for try := 0; ; try++ {
		sc = sampleShape(rng, name, opts.maxN())
		if p := sc.Params(); p.Validate() == nil {
			if ok, _ := proto.Constructible(p); ok {
				break
			}
		}
		if try >= 63 {
			// Fallback: a tuple every registered protocol can run.
			sc.N, sc.L, sc.T = 4, 4, 1
			break
		}
	}

	// Inputs, assignment and timing.
	sc.Inputs = make([]int, sc.N)
	for i := range sc.Inputs {
		sc.Inputs[i] = rng.Intn(2)
	}
	sc.Assignment = [...]string{"roundrobin", "stacked", "random"}[rng.Intn(3)]
	sc.AssignSeed = rng.Int63()
	if sc.Psync {
		sc.GST = 1 + rng.Intn(12)
	} else {
		sc.GST = 1
	}
	sc.AdvSeed = rng.Int63()

	// Adversary composition.
	if sc.T == 0 {
		sc.Selector = SelectorSpec{Kind: "none"}
	} else {
		switch rng.Intn(3) {
		case 0:
			sc.Selector = SelectorSpec{Kind: "first"}
		case 1:
			sc.Selector = SelectorSpec{Kind: "random"}
		default:
			k := 1 + rng.Intn(sc.T)
			seen := map[int]bool{}
			var slots []int
			for len(slots) < k {
				s := rng.Intn(sc.N)
				if !seen[s] {
					seen[s] = true
					slots = append(slots, s)
				}
			}
			sc.Selector = SelectorSpec{Kind: "slots", Slots: sortedCopy(slots)}
		}
	}

	kinds := []string{"silent", "crash", "noise", "equivocate", "keyequivocate", "mimicflood"}
	if proto.Forge != nil {
		kinds = append(kinds, "valueflood", "valueflood") // double weight: the sharpest generic attack
	}
	sc.Behavior = BehaviorSpec{Kind: kinds[rng.Intn(len(kinds))]}
	if rng.Intn(4) == 0 {
		sc.Behavior.Until = 1 + rng.Intn(20)
	}

	sc.Drops = DropSpec{Kind: "none"}
	if sc.Psync && sc.GST > 1 {
		switch rng.Intn(3) {
		case 0:
		case 1:
			sc.Drops = DropSpec{Kind: "random", Seed: rng.Int63(), Prob: 0.3 + 0.6*rng.Float64()}
		default:
			k := 1 + rng.Intn(2)
			seen := map[int]bool{}
			var targets []int
			for len(targets) < k && len(targets) < sc.N {
				s := rng.Intn(sc.N)
				if !seen[s] {
					seen[s] = true
					targets = append(targets, s)
				}
			}
			sc.Drops = DropSpec{
				Kind:     "targeted",
				Targets:  sortedCopy(targets),
				Inbound:  rng.Intn(2) == 0,
				Outbound: rng.Intn(2) == 0,
			}
			if !sc.Drops.Inbound && !sc.Drops.Outbound {
				sc.Drops.Inbound = true
			}
		}
	}

	// Injected process/link faults on about a quarter of scenarios. The
	// draw comes after every older field, so the prefix of the rng stream
	// — and with it every fault-free scenario — is unchanged.
	if rng.Intn(4) == 0 {
		sc.Faults = sampleFaults(rng, sc.N)
	}

	// Eventually-synchronous timing dimension on about a fifth of
	// scenarios (every one under Chaos): the esync time model, its policy
	// knobs, delay/reorder/stall faults and a message budget. These draws
	// come after every older field — including the fault draw above — so
	// the rng-stream prefix, and with it every lockstep scenario, is
	// unchanged.
	if t := timingRows[opts.Chaos]; t.branch.hit(rng) {
		sc.TimeModel = "esync"
		sc.Bound = rng.Intn(t.bound)
		if t.timeout.hit(rng) {
			sc.Timeout = 1 + rng.Intn(3)
			if t.retries.hit(rng) {
				sc.MaxAttempts = 1 + rng.Intn(t.attempts)
			}
		}
		if !t.untimed.hit(rng) {
			sc.Faults = sampleTimingFaults(rng, sc.N, sc.Faults, t)
		}
		if t.squeeze.hit(rng) {
			unit := t.sendUnit
			if unit == 0 {
				unit = sc.N
			}
			sc.MaxSends = unit * (t.sendsMin + rng.Intn(t.sendsSpan))
		}
	}
	return sc
}

// sampleFaults draws a small injected-fault schedule: one or two
// crash/crash-recovery faults, an omission window, and (rarely)
// duplication or stale replay. Rounds stay in the opening window (1..8)
// where they interleave with GST and the adversary; all slots are fair
// game — faults on Byzantine slots are absorbed by the adversary, faults
// on correct slots become Result.Faulted culprits.
func sampleFaults(rng *rand.Rand, n int) *inject.Schedule {
	var f inject.Schedule
	if rng.Intn(2) == 0 {
		k := 1 + rng.Intn(2)
		for i := 0; i < k; i++ {
			c := inject.Crash{Slot: rng.Intn(n), Round: 1 + rng.Intn(8)}
			if rng.Intn(3) > 0 {
				c.Recover = 1 + rng.Intn(6)
			}
			f.Crashes = append(f.Crashes, c)
		}
	}
	if rng.Intn(2) == 0 {
		o := inject.Omission{Slot: rng.Intn(n), From: 1 + rng.Intn(8), Seed: rng.Int63()}
		switch rng.Intn(3) {
		case 0:
			o.Send = true
		case 1:
			o.Receive = true
		default:
			o.Send, o.Receive = true, true
		}
		if rng.Intn(2) == 0 {
			o.Until = o.From + rng.Intn(6)
		}
		if rng.Intn(2) == 0 {
			o.Prob = 0.3 + 0.6*rng.Float64()
		}
		f.Omissions = append(f.Omissions, o)
	}
	if rng.Intn(4) == 0 {
		f.Duplicates = append(f.Duplicates, inject.Duplicate{
			FromSlot: rng.Intn(n), ToSlot: rng.Intn(n), Round: 1 + rng.Intn(8),
		})
	}
	if rng.Intn(4) == 0 {
		src := 1 + rng.Intn(6)
		f.Replays = append(f.Replays, inject.Replay{
			FromSlot: rng.Intn(n), SourceRound: src, Round: src + 1 + rng.Intn(4), ToSlot: rng.Intn(n),
		})
	}
	if f.Empty() {
		// The quarter that reaches here should inject something: fall back
		// to a single crash-recovery fault.
		f.Crashes = append(f.Crashes, inject.Crash{
			Slot: rng.Intn(n), Round: 1 + rng.Intn(4), Recover: 1 + rng.Intn(4),
		})
	}
	return &f
}

// odds is a k-in-n chance, drawn as rng.Intn(n) < k: one draw even when
// the outcome is certain (k = 0 or k = n).
type odds struct{ k, n int }

func (o odds) hit(rng *rand.Rand) bool { return rng.Intn(o.n) < o.k }

// timingRow is one density of the timing dimension: the odds and spans
// Generate's esync branch and sampleTimingFaults draw from. A span s
// draws 1+rng.Intn(s) unless its comment says otherwise.
type timingRow struct {
	branch             odds // the esync branch is taken
	bound              int  // Bound is rng.Intn(bound)
	timeout, retries   odds // a retransmit timeout; then an attempt cap
	attempts           int  // span of MaxAttempts
	untimed, undelayed odds // no timing faults at all; no delay windows
	delays             int  // span of the number of delay windows
	hold               int  // span of a delay's By
	window             int  // a delay's Until-From is rng.Intn(window)
	probMin, probSpan  float64
	reorder, stall     odds
	stallFor           int // span of a stall's Rounds
	squeeze            odds
	// A squeezed budget is sendUnit·(sendsMin+rng.Intn(sendsSpan))
	// sends; sendUnit 0 means n.
	sendUnit, sendsMin, sendsSpan int
}

// timingRows holds the plain row (GenOptions.Chaos false), whose draws are
// the campaign's rng stream and must not move, and the chaos row: every
// scenario timed, more and longer delay windows, reorders and stalls at
// even odds, retransmission on three scenarios in four and, one in four,
// a budget of a few rounds' sends, so sustained delay plus retransmission
// degrades into a structured stop.
var timingRows = map[bool]timingRow{
	false: {branch: odds{1, 5}, bound: 3, timeout: odds{1, 2}, retries: odds{1, 2}, attempts: 3,
		untimed: odds{1, 3}, undelayed: odds{1, 3}, delays: 2, hold: 4, window: 6, probMin: 0.3, probSpan: 0.6,
		reorder: odds{1, 3}, stall: odds{1, 3}, stallFor: 3, squeeze: odds{1, 6}, sendUnit: 64, sendsMin: 1, sendsSpan: 32},
	true: {branch: odds{1, 1}, bound: 4, timeout: odds{3, 4}, retries: odds{1, 3}, attempts: 4,
		untimed: odds{0, 1}, undelayed: odds{0, 1}, delays: 3, hold: 5, window: 8, probMin: 0.2, probSpan: 0.7,
		reorder: odds{1, 2}, stall: odds{1, 2}, stallFor: 4, squeeze: odds{1, 4}, sendsMin: 2, sendsSpan: 6},
}

// sampleTimingFaults adds delay/reorder/stall timing faults drawn from
// row t to the scenario's schedule (allocating one when it had none; the
// input schedule is not mutated). Windows stay in the opening rounds
// where they interleave with GST, the adversary and retransmission; a
// delay with By == 0 holds its link until stabilisation — the sharpest
// pre-GST schedule the model allows.
func sampleTimingFaults(rng *rand.Rand, n int, base *inject.Schedule, t timingRow) *inject.Schedule {
	f := &inject.Schedule{}
	if base != nil {
		g := *base
		f = &g
	}
	if !t.undelayed.hit(rng) {
		k := 1 + rng.Intn(t.delays)
		for i := 0; i < k; i++ {
			d := inject.Delay{FromSlot: rng.Intn(n), ToSlot: rng.Intn(n), From: 1 + rng.Intn(6)}
			if rng.Intn(3) > 0 {
				d.By = 1 + rng.Intn(t.hold)
			}
			if rng.Intn(2) == 0 {
				d.Until = d.From + rng.Intn(t.window)
			}
			if rng.Intn(3) == 0 {
				d.Prob = t.probMin + t.probSpan*rng.Float64()
				d.Seed = rng.Int63()
			}
			f.Delays = append(f.Delays, d)
		}
	}
	if t.reorder.hit(rng) {
		f.Reorders = append(f.Reorders, inject.Reorder{
			FromSlot: rng.Intn(n), ToSlot: rng.Intn(n), Round: 1 + rng.Intn(8),
		})
	}
	if t.stall.hit(rng) {
		f.Stalls = append(f.Stalls, inject.Stall{
			Slot: rng.Intn(n), Round: 1 + rng.Intn(6), Rounds: 1 + rng.Intn(t.stallFor),
		})
	}
	if !f.HasTiming() {
		// The branch that reaches here should inject something timed:
		// fall back to a single bounded link delay.
		f.Delays = append(f.Delays, inject.Delay{
			FromSlot: rng.Intn(n), ToSlot: rng.Intn(n), From: 1 + rng.Intn(4), By: 1 + rng.Intn(3),
		})
	}
	return f
}

// sampleShape draws (protocol, n, l, t, model flags) with two biases: t
// concentrates around n/3, and — half the time — l snaps to the
// protocol's own solvability threshold ±1, the boundary band where
// classification mistakes would hide (the same band the solvability
// package's BoundaryParams enumerates for the tests).
func sampleShape(rng *rand.Rand, name string, maxN int) Scenario {
	sc := Scenario{Protocol: name}
	sc.N = 2 + rng.Intn(maxN-1)
	sc.T = rng.Intn(sc.N/3 + 2)
	if sc.T >= sc.N {
		sc.T = sc.N - 1
	}
	sc.L = 1 + rng.Intn(sc.N)

	switch name {
	case "synchom":
		sc.Psync = false
		sc.Numerate = rng.Intn(2) == 0
		sc.Restricted = rng.Intn(2) == 0
	case "psynchom":
		sc.Psync = rng.Intn(5) > 0 // mostly the model it is made for
		sc.Numerate = rng.Intn(4) == 0
		sc.Restricted = false
	case "psyncnum":
		sc.Psync = rng.Intn(2) == 0 // Theorems 14/15 cover both models
		sc.Numerate = rng.Intn(5) > 0
		sc.Restricted = rng.Intn(5) > 0
	case "authbcast":
		sc.Psync = rng.Intn(2) == 0
		sc.Numerate = rng.Intn(2) == 0
		sc.Restricted = rng.Intn(2) == 0
	case "numbcast":
		sc.Psync = rng.Intn(2) == 0
		sc.Numerate = rng.Intn(5) > 0
		sc.Restricted = rng.Intn(5) > 0
	default:
		sc.Psync = rng.Intn(2) == 0
		sc.Numerate = rng.Intn(2) == 0
		sc.Restricted = rng.Intn(2) == 0
	}

	// Boundary bias on the identifier count.
	if snap := rng.Intn(2) == 0; snap {
		var crit int
		switch name {
		case "synchom", "authbcast":
			crit = 3*sc.T + 1
		case "psynchom":
			crit = (sc.N+3*sc.T)/2 + 1
		case "psyncnum":
			crit = sc.T + 1
		default:
			crit = 0
		}
		if crit > 0 {
			l := crit - 1 + rng.Intn(3)
			if l < 1 {
				l = 1
			}
			if l > sc.N {
				l = sc.N
			}
			sc.L = l
		}
	}
	return sc
}
