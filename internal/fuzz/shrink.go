package fuzz

import (
	"homonyms/internal/inject"
	"homonyms/internal/protoreg"
)

// Shrink greedily minimises a violating (or panicking) scenario: it
// tries a fixed, deterministic list of simplifications (weaker behavior,
// no drops, simpler selector, fewer injected faults, back to lockstep,
// zeroed timing knobs, fewer slots, fewer identifiers, fewer Byzantine
// faults, earlier GST, round-robin assignment, all-zero inputs) and
// keeps a candidate whenever rerunning
// it reproduces the same classification and still violates every
// property of the original. It returns the final outcome and the number
// of executions spent (0 when the input is not a violation or panic).
// The result is a fixpoint: no single listed simplification applies to
// it any more — a minimal counterexample in that sense.
func Shrink(orig *Outcome, budget int) (*Outcome, int) {
	if orig.Class != ClassExpected && orig.Class != ClassViolation && orig.Class != ClassPanic {
		return nil, 0
	}
	want := orig.Properties
	accept := func(o *Outcome) bool {
		return o.Class == orig.Class && o.ViolatesAtLeast(want)
	}
	cur := orig
	runs := 0
	for runs < budget {
		improved := false
		for _, cand := range candidates(cur.Scenario) {
			runs++
			if o := Run(cand, Options{}); accept(o) {
				cur = o
				improved = true
				break
			}
			if runs >= budget {
				break
			}
		}
		if !improved {
			break
		}
	}
	return cur, runs
}

// candidates returns the one-step simplifications of sc, most aggressive
// first, filtered to shapes that are valid and constructible (a candidate
// the registry cannot run would only waste shrink budget).
func candidates(sc Scenario) []Scenario {
	var out []Scenario
	add := func(c Scenario) {
		if c.Params().Validate() != nil {
			return
		}
		if proto, ok := protoreg.Get(c.Protocol); ok {
			if ok, _ := proto.Constructible(c.Params()); !ok {
				return
			}
		}
		out = append(out, c)
	}

	// Behavior: straight to silent, then one ladder step.
	if sc.Behavior.Kind != "silent" && sc.Behavior.Kind != "" {
		c := sc
		c.Behavior = BehaviorSpec{Kind: "silent"}
		add(c)
	}
	if step, ok := map[string]string{
		"valueflood":    "equivocate",
		"keyequivocate": "equivocate",
		"mimicflood":    "equivocate",
		"noise":         "silent",
		"crash":         "silent",
	}[sc.Behavior.Kind]; ok {
		c := sc
		c.Behavior.Kind = step
		add(c)
	}
	if sc.Behavior.Until > 0 {
		c := sc
		c.Behavior.Until = 0
		add(c)
	}

	// Drops: remove entirely, then fewer targets.
	if sc.Drops.Kind != "none" && sc.Drops.Kind != "" {
		c := sc
		c.Drops = DropSpec{Kind: "none"}
		add(c)
	}
	if sc.Drops.Kind == "targeted" && len(sc.Drops.Targets) > 1 {
		c := sc
		c.Drops.Targets = sortedCopy(sc.Drops.Targets[:len(sc.Drops.Targets)-1])
		add(c)
	}

	// Injected faults: remove the schedule entirely, then clear one fault
	// list at a time, then drop the last entry of each list (repeated
	// application empties any list, so the fixpoint keeps only the
	// entries the failure needs).
	if !sc.Faults.Empty() {
		c := sc
		c.Faults = nil
		add(c)
		f := *sc.Faults
		if len(f.Crashes) > 0 {
			g := f
			g.Crashes = g.Crashes[:len(g.Crashes)-1]
			c = sc
			c.Faults = schedOrNil(g)
			add(c)
		}
		if len(f.Omissions) > 0 {
			g := f
			g.Omissions = g.Omissions[:len(g.Omissions)-1]
			c = sc
			c.Faults = schedOrNil(g)
			add(c)
		}
		if len(f.Duplicates) > 0 {
			g := f
			g.Duplicates = g.Duplicates[:len(g.Duplicates)-1]
			c = sc
			c.Faults = schedOrNil(g)
			add(c)
		}
		if len(f.Replays) > 0 {
			g := f
			g.Replays = g.Replays[:len(g.Replays)-1]
			c = sc
			c.Faults = schedOrNil(g)
			add(c)
		}
		if len(f.Delays) > 0 {
			g := f
			g.Delays = g.Delays[:len(g.Delays)-1]
			c = sc
			c.Faults = schedOrNil(g)
			add(c)
		}
		if len(f.Reorders) > 0 {
			g := f
			g.Reorders = g.Reorders[:len(g.Reorders)-1]
			c = sc
			c.Faults = schedOrNil(g)
			add(c)
		}
		if len(f.Stalls) > 0 {
			g := f
			g.Stalls = g.Stalls[:len(g.Stalls)-1]
			c = sc
			c.Faults = schedOrNil(g)
			add(c)
		}
	}

	// Timing dimension: back to lockstep once no timing fault needs the
	// esync model, then zero each policy knob, then lift the budget.
	if sc.TimeModel != "" && sc.TimeModel != "lockstep" && !sc.Faults.HasTiming() {
		c := sc
		c.TimeModel = ""
		c.Bound, c.Timeout, c.MaxAttempts = 0, 0, 0
		add(c)
	}
	if sc.Timeout > 0 {
		c := sc
		c.Timeout, c.MaxAttempts = 0, 0
		add(c)
	}
	if sc.MaxAttempts > 0 {
		c := sc
		c.MaxAttempts = 0
		add(c)
	}
	if sc.Bound > 0 {
		c := sc
		c.Bound = 0
		add(c)
	}
	if sc.MaxSends > 0 {
		c := sc
		c.MaxSends = 0
		add(c)
	}

	// Selector: simplest deterministic form, then fewer explicit slots.
	if sc.Selector.Kind == "random" || (sc.Selector.Kind == "slots" && len(sc.Selector.Slots) >= sc.T) {
		c := sc
		c.Selector = SelectorSpec{Kind: "first"}
		add(c)
	}
	if sc.Selector.Kind == "slots" && len(sc.Selector.Slots) > 1 {
		c := sc
		c.Selector.Slots = sortedCopy(sc.Selector.Slots[:len(sc.Selector.Slots)-1])
		add(c)
	}

	// Fewer faults. Explicit slot lists must stay within the new budget.
	if sc.T > 0 {
		c := sc
		c.T--
		if c.T == 0 {
			c.Selector = SelectorSpec{Kind: "none"}
		} else if c.Selector.Kind == "slots" && len(c.Selector.Slots) > c.T {
			c.Selector.Slots = sortedCopy(c.Selector.Slots[:c.T])
		}
		c.MaxRounds = 0
		add(c)
	}

	// Fewer slots. Inputs truncate; slot references beyond the new range
	// disappear.
	if sc.N > 2 && sc.L <= sc.N-1 && sc.T <= sc.N-2 {
		c := sc
		c.N--
		c.Inputs = append([]int(nil), sc.Inputs[:c.N]...)
		c.Selector.Slots = filterBelow(sc.Selector.Slots, c.N)
		if c.Selector.Kind == "slots" && len(c.Selector.Slots) == 0 {
			c.Selector = SelectorSpec{Kind: "first"}
		}
		c.Drops.Targets = filterBelow(sc.Drops.Targets, c.N)
		if c.Drops.Kind == "targeted" && len(c.Drops.Targets) == 0 {
			c.Drops = DropSpec{Kind: "none"}
		}
		c.Faults = trimFaults(sc.Faults, c.N)
		c.MaxRounds = 0
		add(c)
	}

	// Fewer identifiers.
	if sc.L > 1 {
		c := sc
		c.L--
		c.MaxRounds = 0
		add(c)
	}

	// Earlier stabilisation, shorter budget.
	if sc.GST > 1 {
		c := sc
		c.GST = 1
		c.MaxRounds = 0
		add(c)
		if sc.GST > 2 {
			c = sc
			c.GST = (sc.GST + 1) / 2
			c.MaxRounds = 0
			add(c)
		}
	}
	if sc.MaxRounds > 0 {
		c := sc
		c.MaxRounds = 0 // back to the protocol's suggested budget
		add(c)
	}

	// Canonical assignment and inputs.
	if sc.Assignment != "roundrobin" && sc.Assignment != "" {
		c := sc
		c.Assignment = "roundrobin"
		c.AssignSeed = 0
		add(c)
	}
	if !allZero(sc.Inputs) {
		c := sc
		c.Inputs = make([]int, len(sc.Inputs))
		add(c)
		// And the gentler step: zero only the last non-zero input.
		c = sc
		c.Inputs = append([]int(nil), sc.Inputs...)
		for i := len(c.Inputs) - 1; i >= 0; i-- {
			if c.Inputs[i] != 0 {
				c.Inputs[i] = 0
				break
			}
		}
		add(c)
	}
	return out
}

// schedOrNil boxes a schedule, normalising empty to nil (the canonical
// "no faults" encoding, so shrunk seeds omit the field).
func schedOrNil(s inject.Schedule) *inject.Schedule {
	if s.Empty() {
		return nil
	}
	return &s
}

// trimFaults drops fault entries referencing slots at or beyond n,
// keeping N-shrink candidates compilable.
func trimFaults(s *inject.Schedule, n int) *inject.Schedule {
	if s.Empty() {
		return nil
	}
	var g inject.Schedule
	for _, x := range s.Crashes {
		if x.Slot < n {
			g.Crashes = append(g.Crashes, x)
		}
	}
	for _, x := range s.Omissions {
		if x.Slot < n {
			g.Omissions = append(g.Omissions, x)
		}
	}
	for _, x := range s.Duplicates {
		if x.FromSlot < n && x.ToSlot < n {
			g.Duplicates = append(g.Duplicates, x)
		}
	}
	for _, x := range s.Replays {
		if x.FromSlot < n && x.ToSlot < n {
			g.Replays = append(g.Replays, x)
		}
	}
	for _, x := range s.Delays {
		if x.FromSlot < n && x.ToSlot < n {
			g.Delays = append(g.Delays, x)
		}
	}
	for _, x := range s.Reorders {
		if x.FromSlot < n && x.ToSlot < n {
			g.Reorders = append(g.Reorders, x)
		}
	}
	for _, x := range s.Stalls {
		if x.Slot < n {
			g.Stalls = append(g.Stalls, x)
		}
	}
	return schedOrNil(g)
}

func filterBelow(xs []int, n int) []int {
	var out []int
	for _, x := range xs {
		if x < n {
			out = append(out, x)
		}
	}
	return out
}

func allZero(xs []int) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}
