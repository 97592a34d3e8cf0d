package explore

import (
	"encoding/json"
	"testing"

	"homonyms/internal/fuzz"
	"homonyms/internal/hom"
)

// psyncBoundary is the 2l = n+3t boundary cell (n=2, l=1, t=0): the
// cheapest unsolvable cell, broken by a repeated full partition before
// a late GST.
func psyncBoundary() (string, hom.Params, Options) {
	return "psynchom",
		hom.Params{N: 2, L: 1, T: 0, Synchrony: hom.PartiallySynchronous},
		Options{ChoiceRounds: 2, GSTs: []int{3, 5, 7}}
}

func TestCheckCellFindsPartitionCounterexample(t *testing.T) {
	proto, p, opts := psyncBoundary()
	rep, err := CheckCell(proto, p, opts)
	if err != nil {
		t.Fatalf("CheckCell: %v", err)
	}
	if rep.Verified {
		t.Fatal("unsolvable boundary cell reported Verified")
	}
	if rep.Counterexample == nil {
		t.Fatal("no counterexample found")
	}
	if rep.Outcome.Class != fuzz.ClassExpected {
		t.Fatalf("counterexample class = %s, want %s (claims must be false here)",
			rep.Outcome.Class, fuzz.ClassExpected)
	}
	found := false
	for _, prop := range rep.Outcome.Properties {
		if prop == "agreement" {
			found = true
		}
	}
	if !found {
		t.Fatalf("violated properties = %v, want agreement", rep.Outcome.Properties)
	}
	// The harvested seed must replay bit-for-bit through the corpus
	// replay path — the same check CI runs on committed seeds.
	if _, err := fuzz.Replay(*rep.Counterexample, fuzz.Options{}); err != nil {
		t.Fatalf("harvested counterexample does not replay: %v", err)
	}
}

func TestCheckCellVerifiesSolvableCell(t *testing.T) {
	rep, err := CheckCell("psynchom",
		hom.Params{N: 2, L: 2, T: 0, Synchrony: hom.PartiallySynchronous},
		Options{ChoiceRounds: 2, GSTs: []int{1, 2, 3}})
	if err != nil {
		t.Fatalf("CheckCell: %v", err)
	}
	if !rep.Verified {
		t.Fatalf("solvable cell not verified: %s", rep.Detail)
	}
	if rep.Counterexample != nil {
		t.Fatalf("solvable cell produced a counterexample: %s", rep.Detail)
	}
	if rep.Executions == 0 || rep.Roots == 0 || rep.States == 0 {
		t.Fatalf("empty search: %+v", rep)
	}
}

// TestCheckCellWorkerParity: the whole report — digest included — must
// be byte-identical across worker counts. This is the determinism
// contract that makes exploration digests comparable across machines.
func TestCheckCellWorkerParity(t *testing.T) {
	proto, p, opts := psyncBoundary()
	opts.Workers = 1
	seq, err := CheckCell(proto, p, opts)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	for _, workers := range []int{2, 4, 7} {
		opts.Workers = workers
		par, err := CheckCell(proto, p, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Digest != seq.Digest {
			t.Fatalf("workers=%d digest %s != workers=1 digest %s", workers, par.Digest, seq.Digest)
		}
		if par.Executions != seq.Executions || par.States != seq.States || par.Merged != seq.Merged {
			t.Fatalf("workers=%d stats diverge: %+v vs %+v", workers, par, seq)
		}
		a, _ := json.Marshal(par.Counterexample)
		b, _ := json.Marshal(seq.Counterexample)
		if string(a) != string(b) {
			t.Fatalf("workers=%d counterexample diverges:\n%s\nvs\n%s", workers, a, b)
		}
	}
}

// TestCounterexampleScenarioRoundTrip: the exported scenario must
// survive JSON marshalling and still reproduce the identical outcome —
// the property that makes harvested seeds commit-safe.
func TestCounterexampleScenarioRoundTrip(t *testing.T) {
	proto, p, opts := psyncBoundary()
	rep, err := CheckCell(proto, p, opts)
	if err != nil {
		t.Fatalf("CheckCell: %v", err)
	}
	if rep.Counterexample == nil {
		t.Fatal("no counterexample to round-trip")
	}
	raw, err := json.Marshal(rep.Counterexample.Scenario)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var sc fuzz.Scenario
	if err := json.Unmarshal(raw, &sc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	o := fuzz.Run(sc, fuzz.Options{})
	if o.Digest != rep.Outcome.Digest {
		t.Fatalf("round-tripped digest %s != harvested %s", o.Digest, rep.Outcome.Digest)
	}
	if o.Class != rep.Outcome.Class {
		t.Fatalf("round-tripped class %s != harvested %s", o.Class, rep.Outcome.Class)
	}
}

func TestCheckCellRejectsBadInput(t *testing.T) {
	_, p, opts := psyncBoundary()
	if _, err := CheckCell("no-such-protocol", p, opts); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := CheckCell("synchom",
		hom.Params{N: 0, L: 0, T: -1, Synchrony: hom.Synchronous}, Options{}); err == nil {
		t.Fatal("invalid params accepted")
	}
	// synchom needs l >= 2 to construct (the EIG core needs two
	// distinct identifiers); constructibility failures are errors, not
	// reports.
	if _, err := CheckCell("synchom",
		hom.Params{N: 3, L: 1, T: 1, Synchrony: hom.Synchronous}, Options{}); err == nil {
		t.Fatal("non-constructible cell accepted")
	}
}

// TestMaxStatesTruncates: an absurdly small frontier cap must surface
// as Truncated (and not Verified), never as a silent pass.
func TestMaxStatesTruncates(t *testing.T) {
	rep, err := CheckCell("psynchom",
		hom.Params{N: 2, L: 2, T: 0, Synchrony: hom.PartiallySynchronous},
		Options{ChoiceRounds: 2, GSTs: []int{3}, MaxStates: 1})
	if err != nil {
		t.Fatalf("CheckCell: %v", err)
	}
	if !rep.Truncated {
		t.Fatal("MaxStates=1 did not truncate")
	}
	if rep.Verified {
		t.Fatal("truncated search reported Verified")
	}
}
