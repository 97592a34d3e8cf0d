package engine

import (
	"fmt"

	"homonyms/internal/hom"
	"homonyms/internal/inject"
)

// Option sets part of the Config that New runs. A Config is itself an
// Option, replacing the whole record; each With* helper sets one field.
type Option interface{ apply(*Config) }

// apply makes a Config an Option: New(cfg) runs exactly what cfg
// describes, and options after it override single fields.
func (cfg Config) apply(c *Config) { *c = cfg }

// setter is a With* helper's Option.
type setter func(*Config)

func (f setter) apply(c *Config) { f(c) }

// New assembles and validates one execution. The options are applied in
// order to a zero Config, so a later one overrides an earlier one; a nil
// Option is skipped. Defaults: the Lockstep time model and the Counting
// state representation; no adversary, no faults, no budgets. Validation
// runs in a fixed order: parameters, assignment, inputs, process factory,
// round cap.
func New(opts ...Option) (*Engine, error) {
	var cfg Config
	for _, opt := range opts {
		if opt != nil {
			opt.apply(&cfg)
		}
	}
	if cfg.rep == nil {
		cfg.rep = Counting()
	}
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
	return newEngine(cfg)
}

// Run assembles an execution from opts and runs it once.
func Run(opts ...Option) (*Result, error) {
	e, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// WithParams sets Config.Params.
func WithParams(p hom.Params) Option { return setter(func(c *Config) { c.Params = p }) }

// WithAssignment sets Config.Assignment, which is kept, not copied.
func WithAssignment(a hom.Assignment) Option { return setter(func(c *Config) { c.Assignment = a }) }

// WithInputs sets Config.Inputs; a slice passed as inputs... is kept, not
// copied.
func WithInputs(inputs ...hom.Value) Option { return setter(func(c *Config) { c.Inputs = inputs }) }

// WithProcess sets Config.NewProcess.
func WithProcess(factory func(slot int) Process) Option {
	return setter(func(c *Config) { c.NewProcess = factory })
}

// WithAdversary sets Config.Adversary; nil is a fault-free run.
func WithAdversary(adv Adversary) Option { return setter(func(c *Config) { c.Adversary = adv }) }

// WithGST sets Config.GST.
func WithGST(round int) Option { return setter(func(c *Config) { c.GST = round }) }

// WithRounds sets Config.MaxRounds.
func WithRounds(maxRounds int) Option { return setter(func(c *Config) { c.MaxRounds = maxRounds }) }

// WithTrafficRecording sets Config.RecordTraffic.
func WithTrafficRecording() Option { return setter(func(c *Config) { c.RecordTraffic = true }) }

// WithFaults sets Config.Faults; nil injects no faults.
func WithFaults(schedule *inject.Schedule) Option {
	return setter(func(c *Config) { c.Faults = schedule })
}

// WithTimeModel sets Config.TimeModel; nil is Lockstep.
func WithTimeModel(tm TimeModel) Option { return setter(func(c *Config) { c.TimeModel = tm }) }

// WithStateRep selects the state representation; nil is Counting.
func WithStateRep(rep StateRep) Option { return setter(func(c *Config) { c.rep = rep }) }
