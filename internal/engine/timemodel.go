package engine

import "fmt"

// TimeModel selects the timing policy an execution runs under. The round
// loop itself is always Run's lockstep loop — rounds are the time base —
// and a model only decides what the Router's timing machinery may do
// between them.
//
// Two implementations exist: Lockstep realises the paper's synchronous
// and partially synchronous models (the latter differs only in the
// Router's pre-GST drop window) and grants the zero policy, and
// EventuallySynchronous adds the timing dimension — per-link message
// delay/reorder and per-process round-clock stalls, held in the engine's
// pending queue and bounded after GST.
type TimeModel interface {
	// Describe names the model for diagnostics.
	Describe() string
	// Timing returns the policy the engine's timing machinery runs under.
	Timing() TimingPolicy
}

// Lockstep is the paper's round-by-round timing model: all processes
// advance through the same round together, and no timing fault can hold a
// delivery.
type Lockstep struct{}

// Describe implements TimeModel.
func (Lockstep) Describe() string { return "lockstep" }

// Timing implements TimeModel: the zero policy.
func (Lockstep) Timing() TimingPolicy { return TimingPolicy{} }

// TimingPolicy is what a timing-capable time model grants the engine:
// whether the timing machinery (pending queue, stalls, retransmission)
// is live, how long a delivery may stay in flight once the execution
// has stabilised, and the sender-side retransmit rules. The zero
// policy — Enabled false — is the lockstep world: the engine rejects
// schedules containing timing faults under it.
type TimingPolicy struct {
	// Enabled turns the timing machinery on.
	Enabled bool
	// Bound is the maximum delivery delay, in rounds, once the execution
	// has stabilised: every held message surfaces by max(GST, send
	// round) + Bound. With Bound 0 the post-GST network is fully
	// synchronous and pre-GST holds drain exactly at GST.
	Bound int
	// Timeout, when positive, arms a retransmit timer on every held
	// delivery: the sender retransmits a copy after Timeout rounds
	// without delivery, then backs off exponentially (gaps Timeout,
	// 2·Timeout, 4·Timeout, ...). Each retransmission is a real
	// transmission — it counts against Config.MaxSends and in
	// Stats.Retransmits — and its copy takes the link's conditions at
	// the retry round, so a retry after a delay window closes arrives
	// immediately. Zero disables retransmission.
	Timeout int
	// MaxAttempts caps retransmissions per held delivery; 0 = unlimited
	// (the send budget is the backstop).
	MaxAttempts int
}

// EventuallySynchronous is the eventually-synchronous timing model (the
// "basic" partial-synchrony model of Dwork, Lynch and Stockmeyer, now
// with real timing): before GST the adversary's fault schedule may
// delay or reorder link deliveries arbitrarily and stall per-process
// round clocks (skew); from GST on every stall has ended and every
// delivery — held or fresh — surfaces within Bound rounds. The round
// loop itself stays lockstep (rounds are the time base the skew and
// delay faults are expressed in), so with zero knobs and no timing
// faults an execution is byte-identical to Lockstep — pinned over the
// whole committed fuzz corpus by the time-model parity suite.
type EventuallySynchronous struct {
	// Bound, Timeout and MaxAttempts are the TimingPolicy knobs; see
	// that type. The zero value is a sound model: synchronous delivery
	// after GST, no retransmission.
	Bound       int
	Timeout     int
	MaxAttempts int
}

// Describe implements TimeModel. The rendering includes the knobs so
// the options layer detects conflicting re-registrations.
func (m EventuallySynchronous) Describe() string {
	return fmt.Sprintf("eventually-synchronous(bound=%d,timeout=%d,maxattempts=%d)",
		m.Bound, m.Timeout, m.MaxAttempts)
}

// Timing implements TimeModel.
func (m EventuallySynchronous) Timing() TimingPolicy {
	return TimingPolicy{
		Enabled:     true,
		Bound:       m.Bound,
		Timeout:     m.Timeout,
		MaxAttempts: m.MaxAttempts,
	}
}
