package explore

import "homonyms/internal/hom"

// Cell is one curated Table-1 boundary cell.
type Cell struct {
	Name     string
	Frontier string // which Table-1 boundary the cell witnesses
	Protocol string
	Params   hom.Params
	Options  Options
	// Expect names the verdict the cell must produce: "verified" (a
	// solvable side must survive the whole declared universe),
	// "counterex" (an unsolvable side must yield a violating execution),
	// or "mirror" (an unsolvable side whose bound is a valency argument
	// — Proposition 16 — that no single bounded execution can witness:
	// the search must find nothing AND the Lemma-17 mirror experiment
	// must establish indistinguishability).
	Expect string
	// Quick: part of the -quick CI subset.
	Quick bool
}

// Cells is the curated boundary table: for each frontier of the paper —
// n = 3t+1 vs n = 3t, l = 3t+1 vs l = 3t, 2l > n+3t vs 2l = n+3t,
// l = t+1 vs l = t — one cell on the solvable side and its neighbour on
// the unsolvable side. Windows and GST lists are tuned per cell to keep
// the full run in CPU-minutes.
func Cells() []Cell {
	sync := func(n, l int) hom.Params { return hom.Params{N: n, L: l, T: 1, Synchrony: hom.Synchronous} }
	psync := func(n, l, t int, numerate bool) hom.Params {
		return hom.Params{N: n, L: l, T: t, Synchrony: hom.PartiallySynchronous, Numerate: numerate, RestrictedByzantine: numerate}
	}
	return []Cell{
		{"A", "sync solvable: n=3t+1, l=3t+1", "synchom", sync(4, 4), Options{ChoiceRounds: 2}, "verified", true},
		{"B", "sync unsolvable: l=3t", "synchom", sync(4, 3), Options{ChoiceRounds: 2}, "counterex", true},
		{"C", "sync unsolvable: n=3t", "synchom", sync(3, 3), Options{ChoiceRounds: 2}, "counterex", true},
		{"D", "psync solvable: 2l>n+3t", "psynchom", psync(3, 2, 0, false),
			Options{ChoiceRounds: 3, GSTs: []int{1, 2, 3}}, "verified", true},
		{"E", "psync unsolvable: 2l=n+3t", "psynchom", psync(2, 1, 0, false),
			Options{ChoiceRounds: 3, GSTs: []int{3, 5, 7}}, "counterex", true},
		{"F", "psync numerate solvable: l=t+1", "psyncnum", psync(4, 2, 1, true),
			Options{ChoiceRounds: 1, GSTs: []int{1}}, "verified", true},
		{"G", "psync numerate unsolvable: l=t", "psyncnum", psync(5, 1, 1, true),
			Options{ChoiceRounds: 1, GSTs: []int{5, 7}}, "mirror", true},
	}
}
