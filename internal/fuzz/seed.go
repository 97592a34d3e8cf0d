package fuzz

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SeedFile is one committed regression seed: a replayable scenario plus
// the outcome it must keep reproducing. Seeds live under testdata/ and
// are replayed by the CI fuzz-smoke job; a replay that drifts in either
// direction — the violation disappears, a new property breaks, or the
// classification flips — fails.
type SeedFile struct {
	Name string `json:"name"`
	// Note says why the seed is interesting (which bound it witnesses,
	// or which bug it regressed).
	Note     string   `json:"note,omitempty"`
	Scenario Scenario `json:"scenario"`
	Expect   Expect   `json:"expect"`
}

// Expect pins the replay outcome.
type Expect struct {
	Class Class `json:"class"`
	// Properties lists the violated property names, sorted.
	Properties []string `json:"properties,omitempty"`
	Claims     bool     `json:"claims"`
	Solvable   bool     `json:"solvable"`
	// Stopped pins the execution-budget stop reason (engine.StopReason
	// text, empty when the run completed within its budgets).
	Stopped string `json:"stopped,omitempty"`
	// Digest is informational provenance (the digest at harvest time);
	// replay does not compare it, so unrelated engine-detail changes do
	// not invalidate seeds.
	Digest string `json:"digest,omitempty"`
}

// NewSeed pins an outcome as a seed file.
func NewSeed(name, note string, o *Outcome) SeedFile {
	return SeedFile{
		Name:     name,
		Note:     note,
		Scenario: o.Scenario,
		Expect: Expect{
			Class:      o.Class,
			Properties: append([]string(nil), o.Properties...),
			Claims:     o.Claims,
			Solvable:   o.Solvable,
			Stopped:    o.Stopped,
			Digest:     o.Digest,
		},
	}
}

// WriteSeed writes the seed as indented JSON.
func WriteSeed(path string, sf SeedFile) error {
	enc, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// loadSeed reads one seed file.
func loadSeed(path string) (SeedFile, error) {
	var sf SeedFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return sf, err
	}
	if err := json.Unmarshal(raw, &sf); err != nil {
		return sf, fmt.Errorf("%s: %w", path, err)
	}
	return sf, nil
}

// Replay reruns the seed's scenario under opts and checks the pinned
// expectation — which every Options value must reproduce: the CI
// hardening job replays the corpus with Invariants on. The returned
// outcome is always non-nil; err describes the first mismatch.
func Replay(sf SeedFile, opts Options) (*Outcome, error) {
	o := Run(sf.Scenario, opts)
	if o.Class != sf.Expect.Class {
		return o, fmt.Errorf("seed %s: class %s, want %s (%s)", sf.Name, o.Class, sf.Expect.Class, o.Detail)
	}
	got := append([]string(nil), o.Properties...)
	want := append([]string(nil), sf.Expect.Properties...)
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return o, fmt.Errorf("seed %s: violated properties [%s], want [%s]",
			sf.Name, strings.Join(got, ","), strings.Join(want, ","))
	}
	if o.Claims != sf.Expect.Claims || o.Solvable != sf.Expect.Solvable {
		return o, fmt.Errorf("seed %s: claims=%v solvable=%v, want claims=%v solvable=%v",
			sf.Name, o.Claims, o.Solvable, sf.Expect.Claims, sf.Expect.Solvable)
	}
	if o.Stopped != sf.Expect.Stopped {
		return o, fmt.Errorf("seed %s: stopped=%q, want %q", sf.Name, o.Stopped, sf.Expect.Stopped)
	}
	return o, nil
}

// ReplayDir replays every *.json seed under dir in sorted order under
// opts and returns the per-seed errors (nil entries omitted). A missing
// directory is not an error: a repository starts with no regression
// seeds. visit (when non-nil) is called for every replayed seed with its
// outcome and replay error, letting callers surface execution details —
// a budget stop, the round count — that the aggregate error list does
// not carry. Seeds that fail to load are reported only through errs.
func ReplayDir(dir string, opts Options, visit func(name string, o *Outcome, err error)) (replayed int, errs []error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, []error{err}
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		sf, err := loadSeed(filepath.Join(dir, name))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		replayed++
		o, err := Replay(sf, opts)
		if err != nil {
			errs = append(errs, err)
		}
		if visit != nil {
			visit(sf.Name, o, err)
		}
	}
	return replayed, errs
}
