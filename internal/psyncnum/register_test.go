package psyncnum

import (
	"testing"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/protoreg"
	"homonyms/internal/trace"
)

// TestRegistryEntry drives the registered Figure-7 target through every
// branch of its claim, construction, budget and forger, and runs one
// execution from it. The claim carries Theorems 14/15's conditions:
// n > 3t, l > t, numerate processes and restricted Byzantine ones.
func TestRegistryEntry(t *testing.T) {
	proto, ok := protoreg.Get("psyncnum")
	if !ok {
		t.Fatal("psyncnum is not registered")
	}
	params := func(n, l, f int) hom.Params {
		return hom.Params{N: n, L: l, T: f, Synchrony: hom.PartiallySynchronous, Numerate: true, RestrictedByzantine: true}
	}
	innumerate, unrestricted := params(7, 3, 2), params(7, 3, 2)
	innumerate.Numerate = false
	unrestricted.RestrictedByzantine = false
	for _, tc := range []struct {
		p                     hom.Params
		claims, constructible bool
	}{
		{params(7, 3, 2), true, true},
		{params(6, 2, 2), false, false}, // n <= 3t
		{params(7, 2, 2), false, true},  // l = t: Proposition 16
		{innumerate, false, true},
		{unrestricted, false, true},
		{params(3, 1, 0), true, true},
	} {
		if got, why := proto.Claims(tc.p); got != tc.claims {
			t.Errorf("Claims(%v) = %v (%s), want %v", tc.p, got, why, tc.claims)
		}
		if got, why := proto.Constructible(tc.p); got != tc.constructible {
			t.Errorf("Constructible(%v) = %v (%s), want %v", tc.p, got, why, tc.constructible)
		}
	}
	p := params(4, 2, 1)
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
	if len(forged) != 1 {
		t.Fatalf("Forge = %v, want one envelope", forged)
	}
	if env, ok := forged[0].(Envelope); !ok || len(env.Parts) != 2 || env.Key() == "" {
		t.Fatalf("Forge = %v, want an envelope of a bundle and a proper set", forged)
	}
}
