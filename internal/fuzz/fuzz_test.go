package fuzz

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"homonyms/internal/hom"
	"homonyms/internal/protoreg"
	"homonyms/internal/solvability"
)

// TestCampaignDeterministic is the acceptance property of the whole
// fuzzer: a fixed seed reproduces byte-identical campaign output across
// runs and across worker counts.
func TestCampaignDeterministic(t *testing.T) {
	cfg := Config{Seed: 20260729, Count: 150, Shrink: true, KeepExpected: 3}
	var formats []string
	var digests []string
	for _, workers := range []int{1, 5, 2} {
		c := cfg
		c.Workers = workers
		rep, err := Campaign(c)
		if err != nil {
			t.Fatal(err)
		}
		formats = append(formats, rep.Format())
		digests = append(digests, rep.Digest)
	}
	for i := 1; i < len(formats); i++ {
		if digests[i] != digests[0] {
			t.Fatalf("digest differs across worker counts: %s vs %s", digests[i], digests[0])
		}
		if formats[i] != formats[0] {
			t.Fatalf("report differs across worker counts:\n%s\n---- vs ----\n%s", formats[i], formats[0])
		}
	}
}

// TestGenerateStreamGolden pins the plain generator's rng stream: the
// JSON of the first 200 scenarios Generate draws from one rng is hashed
// against a committed value. Campaign digests, harvested seed names and
// every recorded soak or campaign figure depend on this stream, so a
// change to the sampler must leave it byte-identical (or re-record all of
// them in the same change).
func TestGenerateStreamGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	h := fnv.New64a()
	for i := 0; i < 200; i++ {
		enc, err := json.Marshal(Generate(rng, GenOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(enc)
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "a7f09c49f7b7f5d2"; got != want {
		t.Fatalf("plain generator stream hash = %s, want %s", got, want)
	}
}

// TestCampaignRejectsUnknownProtocol: a protocol name no registry entry
// answers is a usage error before any scenario runs, not a panic inside
// the generator.
func TestCampaignRejectsUnknownProtocol(t *testing.T) {
	rep, err := Campaign(Config{Seed: 1, Count: 3, Gen: GenOptions{Protocols: []string{"synchom", "nosuch"}}})
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Fatalf("Campaign = %v, %v; want an error naming \"nosuch\"", rep, err)
	}
}

// TestRejectsUnknownTimeModel: an unknown forced time model is a usage
// error for a campaign and a replay alike, before any scenario runs,
// rather than one harness error per scenario.
func TestRejectsUnknownTimeModel(t *testing.T) {
	if _, err := Campaign(Config{Seed: 1, Count: 3, ForceTimeModel: "bogus"}); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("Campaign error = %v, want one naming \"bogus\"", err)
	}
	replayed, errs, err := ReplayDir("testdata", Options{ForceTimeModel: "bogus"}, nil)
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) || replayed != 0 || errs != nil {
		t.Errorf("ReplayDir = %d, %v, %v; want no replay and an error naming \"bogus\"", replayed, errs, err)
	}
}

// TestCampaignFindsOnlyExpectedViolations: every violation a moderate
// campaign finds must be outside the claimed region. A real violation
// here is a real bug in a protocol, a checker, or a registry claim.
func TestCampaignFindsOnlyExpectedViolations(t *testing.T) {
	rep, err := Campaign(Config{Seed: 7, Count: 300, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Real) > 0 {
		f := rep.Real[0]
		t.Fatalf("real violation at scenario %d: %s\n%s", f.Index, describe(f.Outcome.Scenario), f.Outcome.Detail)
	}
	if len(rep.Errors) > 0 {
		t.Fatalf("harness errors: %v", rep.Errors)
	}
	if rep.ByClass[ClassExpected] == 0 {
		t.Fatal("campaign found no expected violations: the adversary registry has lost its teeth")
	}
}

// TestReplayTestdata replays every committed regression seed — the same
// corpus the CI fuzz-smoke job replays.
func TestReplayTestdata(t *testing.T) {
	replayed, errs, err := ReplayDir("testdata", Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range errs {
		t.Error(err)
	}
	if replayed < 3 {
		t.Fatalf("only %d regression seeds under testdata/, want at least 3", replayed)
	}
}

// TestClaimedRegionHolds pins aggressive adversary compositions inside
// each protocol's claimed region: these must stay clean forever.
func TestClaimedRegionHolds(t *testing.T) {
	cases := []Scenario{
		{Protocol: "synchom", N: 7, L: 7, T: 2, Assignment: "roundrobin", Inputs: []int{0, 1, 0, 1, 0, 1, 0}, GST: 1, AdvSeed: 3,
			Selector: SelectorSpec{Kind: "first"}, Behavior: BehaviorSpec{Kind: "keyequivocate"}, Drops: DropSpec{Kind: "none"}},
		{Protocol: "synchom", N: 7, L: 7, T: 2, Assignment: "stacked", Inputs: []int{1, 1, 1, 1, 1, 1, 1}, GST: 1, AdvSeed: 4,
			Selector: SelectorSpec{Kind: "random"}, Behavior: BehaviorSpec{Kind: "valueflood"}, Drops: DropSpec{Kind: "none"}},
		{Protocol: "psynchom", N: 4, L: 4, T: 1, Psync: true, Assignment: "roundrobin", Inputs: []int{0, 1, 1, 0}, GST: 6, AdvSeed: 5,
			Selector: SelectorSpec{Kind: "first"}, Behavior: BehaviorSpec{Kind: "valueflood"}, Drops: DropSpec{Kind: "random", Seed: 9, Prob: 0.5}},
		{Protocol: "psyncnum", N: 7, L: 3, T: 2, Psync: true, Numerate: true, Restricted: true, Assignment: "random", AssignSeed: 2, Inputs: []int{0, 1, 0, 1, 0, 1, 1}, GST: 5, AdvSeed: 6,
			Selector: SelectorSpec{Kind: "random"}, Behavior: BehaviorSpec{Kind: "valueflood"}, Drops: DropSpec{Kind: "targeted", Targets: []int{2, 4}, Inbound: true, Outbound: true}},
		{Protocol: "authbcast", N: 6, L: 4, T: 1, Psync: true, Assignment: "roundrobin", Inputs: []int{0, 1, 0, 1, 0, 1}, GST: 4, AdvSeed: 7,
			Selector: SelectorSpec{Kind: "first"}, Behavior: BehaviorSpec{Kind: "valueflood"}, Drops: DropSpec{Kind: "random", Seed: 8, Prob: 0.7}},
		{Protocol: "numbcast", N: 7, L: 3, T: 2, Numerate: true, Restricted: true, Assignment: "roundrobin", Inputs: []int{1, 0, 1, 0, 1, 0, 1}, GST: 1, AdvSeed: 8,
			Selector: SelectorSpec{Kind: "first"}, Behavior: BehaviorSpec{Kind: "valueflood"}, Drops: DropSpec{Kind: "none"}},
	}
	for _, sc := range cases {
		o := Run(sc, Options{})
		if !o.Claims {
			t.Errorf("%s: expected a claimed-region tuple, registry says: %s", describe(sc), o.ClaimsWhy)
			continue
		}
		if o.Class != ClassOK {
			t.Errorf("%s: %s inside the claimed region: %s", describe(sc), o.Class, o.Detail)
		}
	}
}

// TestBoundaryClassification cross-checks the registry's claims against
// the Table-1 region package solvability reproduces, on the boundary
// band t = floor(n/3) ± 1, l = threshold ± 1 where misclassification
// would hide: an agreement protocol must claim exactly the solvable
// cells of its own variant, and no registered claim may ever exceed
// Table 1.
func TestBoundaryClassification(t *testing.T) {
	ns := []int{4, 6, 7, 9, 10, 12, 13}
	protoOf := map[string]string{
		"sync/innumerate/unrestricted":  "synchom",
		"psync/innumerate/unrestricted": "psynchom",
		"sync/numerate/restricted":      "psyncnum",
		"psync/numerate/restricted":     "psyncnum",
	}
	for _, v := range solvability.Variants() {
		name := protoOf[v.Name]
		proto, ok := protoreg.Get(name)
		if !ok {
			t.Fatalf("protocol %q not registered", name)
		}
		tuples := solvability.BoundaryParams(ns, v)
		if len(tuples) == 0 {
			t.Fatalf("variant %s: no boundary tuples", v.Name)
		}
		for _, p := range tuples {
			claims, why := proto.Claims(p)
			if claims && !p.Solvable() {
				t.Errorf("%s claims %v (%s) but Table 1 says: %s", name, p, why, p.SolvabilityReason())
			}
			if claims != p.Solvable() {
				t.Errorf("%s at boundary %v: claims=%v but solvable=%v (%s)",
					name, p, claims, p.Solvable(), p.SolvabilityReason())
			}
		}
	}
	// The primitives may claim beyond agreement solvability (that is the
	// point of the weaker bound), but never below their own thresholds.
	for _, name := range []string{"authbcast", "numbcast"} {
		proto, _ := protoreg.Get(name)
		for n := 4; n <= 13; n++ {
			for tt := 0; tt <= n/2; tt++ {
				for l := 1; l <= n; l++ {
					p := hom.Params{N: n, L: l, T: tt, Synchrony: hom.Synchronous, Numerate: true, RestrictedByzantine: true}
					if p.Validate() != nil {
						continue
					}
					claims, _ := proto.Claims(p)
					if name == "authbcast" && claims != (l > 3*tt) {
						t.Errorf("authbcast claims=%v at l=%d t=%d", claims, l, tt)
					}
					if name == "numbcast" && claims != (n > 3*tt) {
						t.Errorf("numbcast claims=%v at n=%d t=%d", claims, n, tt)
					}
				}
			}
		}
	}
}

// TestScenarioJSONRoundTrip: the seed format loses nothing that affects
// the execution.
func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := Scenario{Protocol: "psyncnum", N: 7, L: 3, T: 2, Psync: true, Numerate: true, Restricted: true,
		Assignment: "random", AssignSeed: 11, Inputs: []int{0, 1, 0, 1, 0, 1, 1}, GST: 5, AdvSeed: 6,
		Selector: SelectorSpec{Kind: "slots", Slots: []int{1, 4}},
		Behavior: BehaviorSpec{Kind: "equivocate", Until: 12},
		Drops:    DropSpec{Kind: "random", Seed: 3, Prob: 0.4}}
	enc, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	o1, o2 := Run(sc, Options{}), Run(back, Options{})
	if o1.Digest != o2.Digest {
		t.Fatalf("round-tripped scenario runs differently: %s vs %s", o1.Digest, o2.Digest)
	}
}

// TestRunRecoversFromUnknownProtocol: harness failures classify as
// errors, they never panic a campaign.
func TestRunRecoversFromUnknownProtocol(t *testing.T) {
	o := Run(Scenario{Protocol: "nope", N: 4, L: 4, T: 0, Inputs: []int{0, 0, 0, 0}, GST: 1}, Options{})
	if o.Class != ClassError {
		t.Fatalf("class = %s, want error", o.Class)
	}
}

// TestReplayInternedPathStable replays every committed regression seed
// twice — the second pass running on intern tables, inboxes and protocol
// arenas recycled from the first — and checks the verdicts are identical.
// This is the regression guard for the KeyID symbolization layer: pool
// recycling between executions must be invisible to outcomes.
func TestReplayInternedPathStable(t *testing.T) {
	for pass := 0; pass < 2; pass++ {
		replayed, errs, err := ReplayDir("testdata", Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range errs {
			t.Errorf("pass %d: %v", pass, err)
		}
		if replayed < 9 {
			t.Fatalf("pass %d: replayed %d seeds, want all 9", pass, replayed)
		}
	}
}
