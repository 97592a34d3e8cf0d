// Package protoreg is the protocol registry behind the scenario fuzzer:
// every runnable target (the three agreement algorithms and the two
// authenticated-broadcast primitives) registers itself here from an init
// hook in its own package, so the fuzzer enumerates targets without
// hard-coding them. The two broadcast primitives register through
// RegisterBroadcast, which gives both one fuzz host and one checker of
// the broadcast properties.
//
// The registry separates three predicates that are usually conflated:
//
//   - Constructible: the factory can structurally build processes for the
//     parameters (thresholds positive, sub-components buildable). The
//     fuzzer only runs constructible tuples.
//   - Claims: the implementation claims its correctness properties for
//     the parameters — the paper's per-algorithm condition, not Table 1's
//     union. A property violation inside the claimed region is a real
//     bug; outside it, it is an expected lower-bound demonstration.
//   - hom.Params.Solvable: Table 1. The fuzzer cross-checks that every
//     registered claim implies Table-1 solvability, so a registry entry
//     can never claim more than the paper proves.
package protoreg

import (
	"fmt"
	"sort"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/trace"
)

// Protocol is one fuzzable target.
type Protocol struct {
	// Name is the unique registry key (the package name by convention).
	Name string
	// Claims reports whether the implementation claims its correctness
	// properties for p, with the paper condition as the reason.
	Claims func(p hom.Params) (bool, string)
	// Constructible reports whether New can build a runnable factory for
	// p; the reason names the violated structural constraint.
	Constructible func(p hom.Params) (bool, string)
	// New builds the per-slot process factory. It must succeed whenever
	// Constructible reports true, including outside the claimed region
	// (probing the unsolvable side is the point of the fuzzer).
	New func(p hom.Params) (func(slot int) engine.Process, error)
	// Rounds suggests a round budget sufficient for the protocol to
	// finish when drops stop at the given GST round.
	Rounds func(p hom.Params, gst int) int
	// Check evaluates the target's correctness properties over a finished
	// execution. procs holds the processes the factory built, indexed by
	// slot (nil at corrupted slots), so primitive hosts can expose their
	// accept logs. A nil Check means plain agreement checking:
	// trace.Check(res).
	Check func(res *engine.Result, procs []engine.Process) trace.Verdict
	// Forge builds well-formed protocol payloads carrying the given value
	// at the given round, for value-flooding adversaries. Nil when the
	// target has no forgeable wire format.
	Forge func(p hom.Params, round int, v hom.Value) []msg.Payload
	// ClaimsFaults reports whether the claim stretches to an execution
	// where, besides byz corrupted slots, faulted more correct slots
	// suffered benign injected faults (crash/recovery, omission). Nil
	// selects the default: a crashed or omitting process is at most as
	// harmful as a Byzantine one, so the claim survives exactly when
	// byz+faulted fits the corruption budget t. Protocols whose condition
	// counts something other than t (or that tolerate crashes more
	// cheaply) override it. Duplication/replay simulability is NOT this
	// hook's concern — the fuzzer voids claims separately when the
	// schedule is not simulable in the model (inject.Schedule.Simulable).
	ClaimsFaults func(p hom.Params, byz, faulted int) (bool, string)
	// Hidden excludes the target from Names — the enumeration the fuzz
	// generator draws from — while keeping it Get-table. Test-only
	// targets (the deliberately panicking host) register hidden so
	// campaigns only meet them when explicitly requested.
	Hidden bool
}

// VerdictFaults applies the target's fault-tolerance claim hook
// (ClaimsFaults, or the Byzantine-simulation default when nil).
func (pr Protocol) VerdictFaults(p hom.Params, byz, faulted int) (bool, string) {
	if pr.ClaimsFaults != nil {
		return pr.ClaimsFaults(p, byz, faulted)
	}
	return DefaultClaimsFaults(p, byz, faulted)
}

// DefaultClaimsFaults is the registry-wide default fault-claim rule: a
// benign-faulted correct process is dominated by a Byzantine one (a
// crash is a Byzantine process that goes silent; an omission fault is
// one that selectively withholds messages), so the claim holds iff the
// combined count fits the model's corruption budget.
func DefaultClaimsFaults(p hom.Params, byz, faulted int) (bool, string) {
	if byz+faulted <= p.T {
		return true, fmt.Sprintf("byz %d + faulted %d within t=%d (faults Byzantine-simulable)", byz, faulted, p.T)
	}
	return false, fmt.Sprintf("byz %d + faulted %d exceeds t=%d", byz, faulted, p.T)
}

// Verdict applies the target's checker (Check, or trace.Check when nil).
func (pr Protocol) Verdict(res *engine.Result, procs []engine.Process) trace.Verdict {
	if pr.Check != nil {
		return pr.Check(res, procs)
	}
	return trace.Check(res)
}

var registry = map[string]Protocol{}

// Register adds a protocol to the registry. It panics on duplicate or
// incomplete registrations: both are programming errors in an init hook.
func Register(p Protocol) {
	if p.Name == "" || p.Claims == nil || p.Constructible == nil || p.New == nil || p.Rounds == nil {
		panic(fmt.Sprintf("protoreg: incomplete registration %+v", p))
	}
	if _, dup := registry[p.Name]; dup {
		panic("protoreg: duplicate registration " + p.Name)
	}
	registry[p.Name] = p
}

// Get returns the named protocol.
func Get(name string) (Protocol, bool) {
	p, ok := registry[name]
	return p, ok
}

// Names returns the registered non-hidden names in sorted order — the
// registry is a map, and every fuzzer decision must be deterministic.
// Hidden targets stay reachable through Get.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n, p := range registry {
		if !p.Hidden {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
