package fuzz

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdataSeedNames lists every committed seed, so the round-trip
// sweep fails if a new seed is added without being covered.
func testdataSeedNames(t testing.TB) []string {
	t.Helper()
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			names = append(names, strings.TrimSuffix(e.Name(), ".json"))
		}
	}
	if len(names) == 0 {
		t.Fatal("no committed seeds found")
	}
	return names
}

// TestSeedScenarioJSONRoundTrip: every committed seed's scenario must
// survive marshal -> unmarshal -> run with a byte-identical outcome
// digest. This is the property that makes the corpus a stable exchange
// format: a harvested counterexample (cmd/explore -harvest), a shrunk
// fuzz failure and a hand-written seed all pass through the same JSON
// and must name the same execution.
func TestSeedScenarioJSONRoundTrip(t *testing.T) {
	for _, name := range testdataSeedNames(t) {
		t.Run(name, func(t *testing.T) {
			sf := loadTestdataSeed(t, name)
			want := Run(sf.Scenario, Options{})

			raw, err := json.Marshal(sf.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			var sc Scenario
			if err := json.Unmarshal(raw, &sc); err != nil {
				t.Fatal(err)
			}
			got := Run(sc, Options{})
			if got.Digest != want.Digest {
				t.Fatalf("digest drifted across JSON: %s vs %s", got.Digest, want.Digest)
			}
			if got.Class != want.Class {
				t.Fatalf("class drifted across JSON: %s vs %s", got.Class, want.Class)
			}

			// A second marshal of the round-tripped scenario must be
			// byte-identical — no field decays on re-encoding.
			again, err := json.Marshal(sc)
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(raw) {
				t.Fatalf("re-encoded scenario drifted:\n%s\nvs\n%s", again, raw)
			}
		})
	}
}

// TestSeedOptionsMatchesConfig: for every committed seed, the engine run
// of Scenario.Config reports what the reference interpreter reports for
// the same engine.Config — same
// rounds, decisions and stats, whichever state representation.
func TestSeedOptionsMatchesConfig(t *testing.T) {
	for _, name := range testdataSeedNames(t) {
		t.Run(name, func(t *testing.T) {
			if d, err := holdToRefmodel(loadTestdataSeed(t, name).Scenario, false); err != nil || d != "" {
				t.Fatalf("%v%s", err, d)
			}
		})
	}
}

// TestSeedFilesWellFormed: every committed seed file re-encodes to the
// exact bytes on disk (WriteSeed's format), so regenerating a seed
// never produces a spurious diff.
func TestSeedFilesWellFormed(t *testing.T) {
	for _, name := range testdataSeedNames(t) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name+".json")
			disk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sf := loadTestdataSeed(t, name)
			enc, err := json.MarshalIndent(sf, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if string(append(enc, '\n')) != string(disk) {
				t.Fatalf("seed %s is not in WriteSeed's canonical encoding", name)
			}
			if sf.Name != name {
				t.Fatalf("seed name %q does not match its filename %q", sf.Name, name)
			}
		})
	}
}
