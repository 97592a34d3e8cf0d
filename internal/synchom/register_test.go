package synchom

import (
	"testing"

	"homonyms/internal/classical"
	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
	"homonyms/internal/trace"
)

// TestRegistryEntry drives the registered T(EIG) target through every
// branch of its claim, construction, factory, budget and forger, and runs
// one execution from it.
func TestRegistryEntry(t *testing.T) {
	proto, ok := protoreg.Get("synchom")
	if !ok {
		t.Fatal("synchom is not registered")
	}
	params := func(n, l, f int) hom.Params { return hom.Params{N: n, L: l, T: f, Synchrony: hom.Synchronous} }
	psync := params(4, 4, 1)
	psync.Synchrony = hom.PartiallySynchronous

	for _, tc := range []struct {
		p                     hom.Params
		claims, constructible bool
	}{
		{psync, false, false},
		{params(3, 3, 0), true, true},
		{params(5, 4, 1), true, true},
		{params(4, 3, 1), false, true},
		{params(2, 1, 0), true, false},
	} {
		if got, why := proto.Claims(tc.p); got != tc.claims {
			t.Errorf("Claims(%v) = %v (%s), want %v", tc.p, got, why, tc.claims)
		}
		if got, why := proto.Constructible(tc.p); got != tc.constructible {
			t.Errorf("Constructible(%v) = %v (%s), want %v", tc.p, got, why, tc.constructible)
		}
	}
	if ok, _ := proto.VerdictFaults(params(5, 4, 1), 1, 0); !ok {
		t.Error("claim withheld with byz = t and no faults")
	}

	// Rounds: the EIG budget plus one phase, or a fallback when EIG
	// cannot be built.
	p := params(5, 4, 1)
	alg, err := classical.NewEIGUnchecked(p.L, p.T, p.EffectiveDomain())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := proto.Rounds(p, 0), Rounds(alg)+RoundsPerPhase; got != want {
		t.Errorf("Rounds(%v) = %d, want %d", p, got, want)
	}
	if got, want := proto.Rounds(params(2, 1, 2), 0), RoundsPerPhase*5; got != want {
		t.Errorf("Rounds(l=1) = %d, want %d", got, want)
	}
	if _, err := proto.New(params(2, 1, 1)); err == nil {
		t.Error("New built a factory for l = 1 and t = 1")
	}

	factory, err := proto.New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(
		engine.WithParams(p),
		engine.WithAssignment(hom.RoundRobinAssignment(p.N, p.L)),
		engine.WithInputs(0, 1, 1, 0, 1),
		engine.WithProcess(factory),
		engine.WithRounds(proto.Rounds(p, 0)),
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

	// Forge: a decision report of the round's phase.
	for _, tc := range []struct{ round, phase int }{{1, 1}, {3, 1}, {4, 2}, {7, 3}} {
		forged := proto.Forge(p, tc.round, 7)
		if len(forged) != 1 || forged[0] != (decPayload{phase: tc.phase, val: 7}) {
			t.Errorf("Forge(round %d) = %v, want a phase-%d decision report of 7", tc.round, forged, tc.phase)
		}
	}
}

// TestPayloadKeysMatchBuildKey renders the selection and decision
// payloads' keys and compares them with the bytes their BuildKey writes.
func TestPayloadKeysMatchBuildKey(t *testing.T) {
	alg, err := classical.NewEIG(4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []msg.ScratchKeyer{
		selPayload{phase: 2, state: alg.Init(3, 1)},
		decPayload{phase: 2, val: 1},
		decPayload{phase: 5, val: hom.NoValue},
	} {
		var kb msg.KeyBuilder
		p.BuildKey(&kb)
		if got := p.Key(); got != kb.String() || got == "" {
			t.Errorf("%T.Key() = %q, BuildKey wrote %q", p, got, kb.String())
		}
	}
	if (decPayload{phase: 2, val: 1}).Key() == (selPayload{phase: 2, state: alg.Init(3, 1)}).Key() {
		t.Error("decision and selection keys collide")
	}
}
