package fuzz_test

import (
	"testing"

	"homonyms/internal/core"
	"homonyms/internal/fuzz"
	"homonyms/internal/hom"
	"homonyms/internal/protoreg"
	"homonyms/internal/solvability"
)

// TestBoundaryClassification cross-checks the registry's claims against
// the Table-1 region package solvability reproduces, on the boundary
// band t = floor(n/3) ± 1, l = threshold ± 1 where misclassification
// would hide: an agreement protocol must claim exactly the solvable
// cells of its own variant, and no registered claim may ever exceed
// Table 1.
func TestBoundaryClassification(t *testing.T) {
	ns := []int{4, 6, 7, 9, 10, 12, 13}
	for _, v := range solvability.Variants() {
		// Every tuple of the variant with n > 3t falls in one row, the
		// row of n = 4, t = 1; its entry must answer for the whole band.
		row := hom.Params{N: 4, L: 4, T: 1, Synchrony: v.Synchrony, Numerate: v.Numerate, RestrictedByzantine: v.RestrictedByzantine}.Row()
		name := core.Protocol(row)
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

// TestNewScenarioIsFaultFree: the scenario NewScenario builds for a
// solvable cell and its row's entry is the plain run the entry claims —
// round-robin, inputs 0101…, GST 1, nobody corrupted — and it decides.
func TestNewScenarioIsFaultFree(t *testing.T) {
	for _, v := range solvability.Variants() {
		for _, p := range solvability.GridParams([]int{4, 7}, []int{0, 1, 2}, v) {
			if !p.Solvable() {
				continue
			}
			sc := fuzz.NewScenario(core.Protocol(p.Row()), p)
			if sc.Params().String() != p.String() || sc.Assignment != "roundrobin" || sc.GST != 1 || len(sc.Inputs) != p.N || sc.Inputs[1] != 1 {
				t.Fatalf("%v: NewScenario = %+v", p, sc)
			}
			o := fuzz.Run(sc, fuzz.Options{})
			if o.Class != fuzz.ClassOK || !o.Claims {
				t.Errorf("%v via %s: %s (claims %v: %s)", p, sc.Protocol, o.Detail, o.Claims, o.ClaimsWhy)
			}
			if cfg, err := sc.Config(); err != nil || cfg.Adversary != nil {
				t.Errorf("%v: Config = adversary %v, error %v; want no adversary", p, cfg.Adversary, err)
			}
		}
	}
}
