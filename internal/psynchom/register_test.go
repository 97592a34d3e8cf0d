package psynchom

import (
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/protoreg"
	"homonyms/internal/trace"
)

// TestRegistryEntry drives the registered Figure-5 target through every
// branch of its claim, construction, budget and forger, and runs one
// execution from it. The claim is the paper's condition 2l > n+3t, at
// t = 0 too; core.Select reads the row, so the entry never checks the
// timing model.
func TestRegistryEntry(t *testing.T) {
	proto, ok := protoreg.Get("psynchom")
	if !ok {
		t.Fatal("psynchom is not registered")
	}
	params := func(n, l, f int) hom.Params {
		return hom.Params{N: n, L: l, T: f, Synchrony: hom.PartiallySynchronous}
	}
	for _, tc := range []struct {
		p                     hom.Params
		claims, constructible bool
	}{
		{params(4, 4, 1), true, true},
		{params(6, 5, 1), true, true},
		{params(5, 4, 1), false, true}, // 2l = n+3t: Proposition 4
		{params(7, 3, 1), false, false},
		{params(3, 2, 0), true, true},
		{params(2, 1, 0), false, true}, // seed psynchom-agreement-partition-t0
	} {
		if got, why := proto.Claims(tc.p); got != tc.claims {
			t.Errorf("Claims(%v) = %v (%s), want %v", tc.p, got, why, tc.claims)
		}
		if got, why := proto.Constructible(tc.p); got != tc.constructible {
			t.Errorf("Constructible(%v) = %v (%s), want %v", tc.p, got, why, tc.constructible)
		}
	}
	p := params(4, 4, 1)
	if ok, _ := proto.VerdictFaults(p, 1, 0); !ok {
		t.Error("claim withheld with byz = t and no faults")
	}
	if ok, _ := proto.VerdictFaults(p, 1, 1); ok {
		t.Error("claim kept with byz + faulted > t")
	}
	if got, want := proto.Rounds(p, 5), hom.PhaseRounds(p, 5); got != want {
		t.Errorf("Rounds(%v, 5) = %d, want %d", p, got, want)
	}

	factory, err := proto.New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(
		engine.WithParams(p),
		engine.WithAssignment(hom.RoundRobinAssignment(p.N, p.L)),
		engine.WithInputs(0, 1, 1, 0),
		engine.WithProcess(factory),
		engine.WithRounds(proto.Rounds(p, 1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if v := proto.Verdict(res, nil); !v.OK() {
		t.Fatalf("registered factory: %s", v)
	}
	if _, decided := trace.DecidedValue(res); !decided {
		t.Fatal("registered factory: no common decision")
	}

	forged := proto.Forge(p, 1, 7)
	if len(forged) != 5 || forged[0] != (DecidePayload{Val: 7}) {
		t.Fatalf("Forge = %v, want a decide of 7 and four more payloads", forged)
	}
	for _, f := range forged {
		if f.Key() == "" {
			t.Errorf("forged %T has an empty key", f)
		}
	}
}
