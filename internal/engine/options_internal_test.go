package engine

import (
	"errors"
	"reflect"
	"testing"

	"homonyms/internal/hom"
	"homonyms/internal/inject"
)

// TestConfigOptionsCarriesEveryField pins Config.Options as the one
// conversion from an execution record to options: with every field set,
// folding cfg.Options() the way New does reproduces cfg field for field
// (functions by identity). A field added to Config fails the count
// until it is set here, and then fails the comparison until Options
// carries it.
func TestConfigOptionsCarriesEveryField(t *testing.T) {
	const fields = 15
	if got := reflect.TypeOf(Config{}).NumField(); got != fields {
		t.Fatalf("Config has %d fields, this test sets %d: set the new one and carry it in Options", got, fields)
	}
	cfg := Config{
		Params:        hom.Params{N: 4, L: 2, T: 1, Synchrony: hom.PartiallySynchronous},
		Assignment:    hom.RoundRobinAssignment(4, 2),
		Inputs:        []hom.Value{0, 1, 0, 1},
		NewProcess:    func(int) Process { return nil },
		Adversary:     RowAdversary{},
		GST:           3,
		MaxRounds:     9,
		ExtraRounds:   2,
		Visibility:    func(int, int) bool { return true },
		RecordTraffic: true,
		Faults:        &inject.Schedule{Duplicates: []inject.Duplicate{{FromSlot: 0, ToSlot: 1, Round: 2}}},
		MaxSends:      100,
		TimeModel:     EventuallySynchronous{Bound: 2},
		Invariants:    true,
		FrontierHash:  true,
	}
	s := &settings{seen: make(map[string]string)}
	for _, opt := range cfg.Options() {
		opt(s)
	}
	if len(s.errs) > 0 {
		t.Fatal(errors.Join(s.errs...))
	}
	got, want := reflect.ValueOf(s.cfg), reflect.ValueOf(cfg)
	for i := range want.NumField() {
		name, g, w := want.Type().Field(i).Name, got.Field(i), want.Field(i)
		switch {
		case w.IsZero():
			t.Errorf("%s is unset here, so carrying it proves nothing", name)
		case w.Kind() == reflect.Func:
			if g.Pointer() != w.Pointer() {
				t.Errorf("%s is not carried", name)
			}
		case !reflect.DeepEqual(g.Interface(), w.Interface()):
			t.Errorf("%s is not carried: got %v, want %v", name, g.Interface(), w.Interface())
		}
	}
}
