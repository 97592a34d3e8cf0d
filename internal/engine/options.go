package engine

import (
	"errors"
	"fmt"

	"homonyms/internal/hom"
	"homonyms/internal/inject"
)

// Option errors. New reports every option-level problem at once (the
// returned error joins them); errors.Is matches the sentinels.
var (
	// ErrConflictingOptions: the same knob was set twice with different
	// values. Repeating an option with the same value is idempotent.
	ErrConflictingOptions = errors.New("engine: conflicting options")
	// ErrNilOption: a nil value was passed where a non-nil one is
	// required (WithFaults, WithAdversary, WithVisibility, WithTimeModel,
	// WithStateRep, or a nil Option itself). Absence is expressed by not
	// passing the option, never by passing nil through it.
	ErrNilOption = errors.New("engine: nil value passed to option")
	// ErrBadOption: an option value is outside its domain (a negative
	// budget).
	ErrBadOption = errors.New("engine: invalid option value")
)

// settings accumulates the options before validation. Each knob that
// must be single-valued registers under a name in seen; a second
// registration with a different rendered value is a conflict. The two
// n-sized knobs are remembered as given instead (sliceKnob): rendering a
// million-element slice to detect a repeat that almost never comes cost
// more than assembling the engine.
type settings struct {
	cfg        Config
	rep        StateRep
	seen       map[string]string
	assignment sliceKnob[hom.Identifier]
	inputs     sliceKnob[hom.Value]
	errs       []error
}

// sliceKnob is once for a per-slot knob: the first value is kept by
// reference, a repeat is compared element-wise, and only a conflict
// renders anything — the lengths and the first differing slot.
type sliceKnob[T comparable] struct {
	set bool
	v   []T
}

func (k *sliceKnob[T]) once(s *settings, knob string, v []T) bool {
	if !k.set {
		k.set, k.v = true, v
		return true
	}
	slot := 0
	for slot < len(k.v) && slot < len(v) && k.v[slot] == v[slot] {
		slot++
	}
	if slot == len(k.v) && slot == len(v) {
		return true
	}
	detail := fmt.Sprintf("one value ends at slot %d", slot)
	if slot < len(k.v) && slot < len(v) {
		detail = fmt.Sprintf("slot %d set to both %v and %v", slot, k.v[slot], v[slot])
	}
	s.fail(fmt.Errorf("%w: %s set twice (lengths %d and %d): %s",
		ErrConflictingOptions, knob, len(k.v), len(v), detail))
	return false
}

// Option configures one knob of an execution under assembly by New.
type Option func(*settings)

func (s *settings) fail(err error) { s.errs = append(s.errs, err) }

// once registers a single-valued knob; a repeat with a different value
// records an ErrConflictingOptions.
func (s *settings) once(knob, value string) bool {
	if prev, ok := s.seen[knob]; ok && prev != value {
		s.fail(fmt.Errorf("%w: %s set to both %s and %s", ErrConflictingOptions, knob, prev, value))
		return false
	}
	s.seen[knob] = value
	return true
}

// New assembles and validates one execution. Defaults: the Lockstep
// time model and the Counting state representation; no
// adversary, no faults, no budgets. Option-level errors (conflicts, nil
// values, out-of-domain values) are joined and reported together; configuration-level
// validation then runs in a fixed order: parameters, assignment, inputs,
// process factory, round cap.
func New(opts ...Option) (*Engine, error) {
	s := &settings{seen: make(map[string]string)}
	for _, opt := range opts {
		if opt == nil {
			s.fail(fmt.Errorf("%w: nil Option", ErrNilOption))
			continue
		}
		opt(s)
	}
	if len(s.errs) > 0 {
		return nil, errors.Join(s.errs...)
	}
	if s.rep == nil {
		s.rep = Counting()
	}
	cfg := s.cfg
	if cfg.TimeModel == nil {
		cfg.TimeModel = Lockstep{}
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Assignment.Validate(cfg.Params); err != nil {
		return nil, err
	}
	if len(cfg.Inputs) != cfg.Params.N {
		return nil, fmt.Errorf("%w (got %d, want %d)", hom.ErrInputLength, len(cfg.Inputs), cfg.Params.N)
	}
	if cfg.NewProcess == nil {
		return nil, ErrNilProcessFactory
	}
	if cfg.MaxRounds <= 0 {
		return nil, ErrNoRoundCap
	}
	return newEngine(cfg, s.rep)
}

// Run assembles an execution from opts and runs it once.
func Run(opts ...Option) (*Result, error) {
	e, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// Options is cfg as options, every field carried: New(cfg.Options()...)
// assembles the execution cfg describes. Fields at their zero values are
// left out, so a caller may still append them; a non-positive MaxSends
// is unlimited, as in the engine.
func (cfg Config) Options() []Option {
	// At most one option per Config field, so the slice never grows.
	opts := append(make([]Option, 0, 15), WithParams(cfg.Params), WithAssignment(cfg.Assignment),
		WithInputs(cfg.Inputs...), WithProcess(cfg.NewProcess), WithRounds(cfg.MaxRounds))
	if cfg.Adversary != nil {
		opts = append(opts, WithAdversary(cfg.Adversary))
	}
	if cfg.GST != 0 {
		opts = append(opts, WithGST(cfg.GST))
	}
	if cfg.ExtraRounds != 0 {
		opts = append(opts, WithExtraRounds(cfg.ExtraRounds))
	}
	if cfg.Visibility != nil {
		opts = append(opts, WithVisibility(cfg.Visibility))
	}
	if cfg.RecordTraffic {
		opts = append(opts, WithTrafficRecording())
	}
	if cfg.Faults != nil {
		opts = append(opts, WithFaults(cfg.Faults))
	}
	if cfg.MaxSends > 0 {
		opts = append(opts, WithBudget(cfg.MaxSends))
	}
	if cfg.TimeModel != nil {
		opts = append(opts, WithTimeModel(cfg.TimeModel))
	}
	if cfg.Invariants {
		opts = append(opts, WithInvariants())
	}
	if cfg.FrontierHash {
		opts = append(opts, WithFrontierHash())
	}
	return opts
}

// WithParams fixes the model instance (n, l, t, synchrony, switches).
func WithParams(p hom.Params) Option {
	return func(s *settings) {
		if s.once("Params", fmt.Sprintf("%+v", p)) {
			s.cfg.Params = p
		}
	}
}

// WithAssignment maps slots to identifiers. The slice is kept, not
// copied, and the Result reports it: do not write to it until done with
// the Result (see Config.Assignment).
func WithAssignment(a hom.Assignment) Option {
	return func(s *settings) {
		if s.assignment.once(s, "Assignment", a) {
			s.cfg.Assignment = a
		}
	}
}

// WithInputs supplies one proposal per slot. A slice passed as
// inputs... is kept, not copied, under the same contract as
// WithAssignment.
func WithInputs(inputs ...hom.Value) Option {
	return func(s *settings) {
		if s.inputs.once(s, "Inputs", inputs) {
			s.cfg.Inputs = inputs
		}
	}
}

// WithProcess supplies the correct-process factory.
func WithProcess(factory func(slot int) Process) Option {
	return func(s *settings) {
		// Nil is caught by New's configuration validation
		// (ErrNilProcessFactory).
		s.cfg.NewProcess = factory
	}
}

// WithAdversary installs the Byzantine adversary.
func WithAdversary(adv Adversary) Option {
	return func(s *settings) {
		if adv == nil {
			s.fail(fmt.Errorf("%w: WithAdversary(nil)", ErrNilOption))
			return
		}
		if s.once("Adversary", fmt.Sprintf("%p", adv)) {
			s.cfg.Adversary = adv
		}
	}
}

// WithGST sets the first round with guaranteed delivery (partially
// synchronous model); values below 1 are clamped to 1.
func WithGST(round int) Option {
	return func(s *settings) {
		if s.once("GST", fmt.Sprintf("%d", round)) {
			s.cfg.GST = round
		}
	}
}

// WithRounds caps the execution. Required (> 0).
func WithRounds(maxRounds int) Option {
	return func(s *settings) {
		if s.once("Rounds", fmt.Sprintf("%d", maxRounds)) {
			s.cfg.MaxRounds = maxRounds
		}
	}
}

// WithExtraRounds keeps the engine running after every correct process
// decided (see Config.ExtraRounds).
func WithExtraRounds(extra int) Option {
	return func(s *settings) {
		if s.once("ExtraRounds", fmt.Sprintf("%d", extra)) {
			s.cfg.ExtraRounds = extra
		}
	}
}

// WithVisibility restricts which slot pairs can communicate.
func WithVisibility(visible func(fromSlot, toSlot int) bool) Option {
	return func(s *settings) {
		if visible == nil {
			s.fail(fmt.Errorf("%w: WithVisibility(nil)", ErrNilOption))
			return
		}
		s.cfg.Visibility = visible
	}
}

// WithTrafficRecording stores every delivery in the Result.
func WithTrafficRecording() Option {
	return func(s *settings) { s.cfg.RecordTraffic = true }
}

// WithFrontierHash maintains per-slot observable-history hashes (see
// Config.FrontierHash); they surface in Result.SlotHashes.
func WithFrontierHash() Option {
	return func(s *settings) { s.cfg.FrontierHash = true }
}

// WithFaults injects the benign-fault schedule (package inject); the
// schedule is compiled, and validated, by New.
func WithFaults(schedule *inject.Schedule) Option {
	return func(s *settings) {
		if schedule == nil {
			s.fail(fmt.Errorf("%w: WithFaults(nil)", ErrNilOption))
			return
		}
		if s.once("Faults", fmt.Sprintf("%p", schedule)) {
			s.cfg.Faults = schedule
		}
	}
}

// WithInvariants enables the paranoid per-round router self-checks.
func WithInvariants() Option {
	return func(s *settings) { s.cfg.Invariants = true }
}

// WithBudget caps the execution's cumulative stamped sends (see
// Config.MaxSends; 0 = unlimited).
func WithBudget(maxSends int) Option {
	return func(s *settings) {
		if maxSends < 0 {
			s.fail(fmt.Errorf("%w: WithBudget(%d)", ErrBadOption, maxSends))
			return
		}
		if s.once("Budget", fmt.Sprintf("%d", maxSends)) {
			s.cfg.MaxSends = maxSends
		}
	}
}

// WithTimeModel selects the execution's time model (default Lockstep).
func WithTimeModel(tm TimeModel) Option {
	return func(s *settings) {
		if tm == nil {
			s.fail(fmt.Errorf("%w: WithTimeModel(nil)", ErrNilOption))
			return
		}
		if s.once("TimeModel", tm.Describe()) {
			s.cfg.TimeModel = tm
		}
	}
}

// WithStateRep selects the state representation (default Counting).
func WithStateRep(rep StateRep) Option {
	return func(s *settings) {
		if rep == nil {
			s.fail(fmt.Errorf("%w: WithStateRep(nil)", ErrNilOption))
			return
		}
		if s.once("StateRep", rep.Describe()) {
			s.rep = rep
		}
	}
}
