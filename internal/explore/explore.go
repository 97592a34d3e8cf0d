// Package explore is the exhaustive bounded model checker for the
// solvability frontier. Where package fuzz samples adversaries from a
// random generator, explore enumerates them: every root choice (GST
// position, corrupt set, input vector) crossed with every per-round
// adversary action from a declared finite menu (forged broadcasts and
// splits over the value domain, equivocating copies of correct slots,
// silence) and — before GST in partially synchronous cells — every
// drop shape from a declared partition/isolation menu. The search is a
// level-synchronized BFS over choice prefixes, deduplicated by a
// canonical frontier hash that quotients out within-identifier-group
// slot permutations (sound because correct processes are deterministic
// in their delivered history and every checked predicate is invariant
// under such permutations). A verified cell therefore holds over the
// group-symmetric closure of the declared menus up to the choice
// window; an unsolvable cell yields a concrete minimal counterexample
// exported in the fuzzer's Scenario JSON, replayable byte-for-byte by
// cmd/fuzz -replay and harvestable into the regression corpus.
//
// The checker is stateless-search shaped: a node is named by its
// choice prefix and re-executed from round 1 through the engine's
// options API, so no engine snapshotting is needed and every
// evaluation is independently parallelizable. Results — including the
// exploration digest — are byte-identical across worker counts because
// candidate expansion order is deterministic and merges are sequential
// in candidate order.
package explore

import (
	"fmt"
	"strings"

	"homonyms/internal/engine"
	"homonyms/internal/exec"
	"homonyms/internal/fuzz"
	"homonyms/internal/hom"
	"homonyms/internal/msg"
	"homonyms/internal/protoreg"
	"homonyms/internal/trace"
)

// Defaults for Options fields left zero.
const (
	DefaultChoiceRounds = 2
	DefaultMaxStates    = 200000
)

// Options tunes one CheckCell search.
type Options struct {
	// Workers bounds evaluation parallelism (0 = exec.Workers()). The
	// report, counterexample and digest do not depend on it.
	Workers int
	// ChoiceRounds is the choice window W: rounds 1..W enumerate the
	// full menus independently; past W the adversary repeats round W's
	// choice (the stationary suffix). 0 selects DefaultChoiceRounds.
	ChoiceRounds int
	// GSTs lists the stabilisation rounds to enumerate for partially
	// synchronous cells (nil = {1}; ignored, forced to {1}, for
	// synchronous cells).
	GSTs []int
	// MaxRounds caps counterexample-classification runs (0 = the
	// protocol's suggested budget for the cell's largest GST).
	MaxRounds int
	// MaxStates caps the deduplicated frontier size per root; exceeding
	// it marks the report Truncated (and therefore not Verified). 0
	// selects DefaultMaxStates.
	MaxStates int
}

// Report is the outcome of one CheckCell search.
type Report struct {
	Protocol string
	Params   hom.Params
	// Solvable echoes Table 1; Claims echoes the registry claim.
	Solvable bool
	Claims   bool
	// Verified: every execution in the group-symmetric closure of the
	// declared choice universe satisfied validity, agreement and
	// termination (within the classification round budget). Mutually
	// exclusive with a non-nil Counterexample unless Truncated.
	Verified  bool
	Truncated bool
	// Roots, Executions, States, Merged count the search: deduplicated
	// root choices, engine runs, distinct frontier states kept, and
	// states merged away by symmetry/prefix-sharing.
	Roots      int
	Executions int
	States     int
	Merged     int
	// Counterexample, when the search found a violating execution, is a
	// ready-to-commit corpus seed; Outcome is its classification.
	Counterexample *fuzz.SeedFile
	Outcome        *fuzz.Outcome
	// Digest hashes the whole exploration (universe shape, every
	// frontier state, every terminal classification) — equal digests
	// mean the search traversed identical executions.
	Digest string
	Detail string
}

// searcher holds one CheckCell run's immutable context.
type searcher struct {
	protoName string
	proto     protoreg.Protocol
	p         hom.Params
	assign    hom.Assignment
	groups    [][]int // slots per identifier, index 1..L
	drops     []dropShape
	gsts      []int
	w         int
	workers   int
	maxStates int
	maxRounds int // classification budget (0 = protocol suggestion)
	digest    msg.StateHash
}

// eval is one window execution's summary.
type eval struct {
	hash     uint64
	terminal bool
	safety   string // "" | "agreement" | "validity"
}

// node is one frontier entry: the choice prefix that reaches it.
type node struct {
	prefix []roundChoice
}

// CheckCell exhaustively searches one parameter cell of the named
// registry protocol over the declared choice universe and reports
// either Verified or a minimal counterexample. It returns an error only
// for unusable inputs (unknown protocol, invalid or non-constructible
// parameters) or an engine-level failure; a property violation is a
// result, not an error.
func CheckCell(protocol string, p hom.Params, opts Options) (*Report, error) {
	proto, ok := protoreg.Get(protocol)
	if !ok {
		return nil, fmt.Errorf("explore: unknown protocol %q", protocol)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	if ok, why := proto.Constructible(p); !ok {
		return nil, fmt.Errorf("explore: %s not constructible for %s: %s", protocol, p, why)
	}
	s := &searcher{
		protoName: protocol,
		proto:     proto,
		p:         p,
		assign:    hom.RoundRobinAssignment(p.N, p.L),
		drops:     dropMenu(p.N),
		w:         opts.ChoiceRounds,
		workers:   opts.Workers,
		maxStates: opts.MaxStates,
		maxRounds: opts.MaxRounds,
	}
	if s.w <= 0 {
		s.w = DefaultChoiceRounds
	}
	if s.workers <= 0 {
		s.workers = exec.Workers()
	}
	if s.maxStates <= 0 {
		s.maxStates = DefaultMaxStates
	}
	s.gsts = []int{1}
	if p.Synchrony == hom.PartiallySynchronous && len(opts.GSTs) > 0 {
		s.gsts = append([]int(nil), opts.GSTs...)
	}
	s.groups = make([][]int, p.L+1)
	for slot := 0; slot < p.N; slot++ {
		id := int(s.assign[slot])
		s.groups[id] = append(s.groups[id], slot)
	}
	// The digest covers everything that shapes the search — but not
	// Workers, which must not matter.
	s.digest = msg.NewStateHash().String(protocol).String(p.String()).
		Int(s.w).Int(s.maxStates).Int(s.maxRounds)
	for _, g := range s.gsts {
		s.digest = s.digest.Int(g)
	}

	claims, _ := proto.Claims(p)
	rep := &Report{
		Protocol: protocol,
		Params:   p,
		Solvable: p.Solvable(),
		Claims:   claims,
	}
	roots := s.enumRoots()
	rep.Roots = len(roots)
	for _, rt := range roots {
		found, err := s.searchRoot(rt, rep)
		if err != nil {
			return nil, err
		}
		if found {
			break
		}
	}
	rep.Verified = rep.Counterexample == nil && !rep.Truncated
	rep.Digest = fmt.Sprintf("%016x", uint64(s.digest))
	rep.Detail = s.detail(rep)
	return rep, nil
}

func (s *searcher) detail(rep *Report) string {
	var b strings.Builder
	switch {
	case rep.Counterexample != nil:
		fmt.Fprintf(&b, "counterexample %s (%s)", rep.Counterexample.Name, rep.Outcome.Class)
		if len(rep.Outcome.Properties) > 0 {
			fmt.Fprintf(&b, " violating %s", strings.Join(rep.Outcome.Properties, ","))
		}
	case rep.Truncated:
		b.WriteString("inconclusive: frontier truncated at MaxStates")
	default:
		fmt.Fprintf(&b, "verified over W=%d choice rounds", s.w)
	}
	fmt.Fprintf(&b, "; %d roots, %d executions, %d states (+%d merged)",
		rep.Roots, rep.Executions, rep.States, rep.Merged)
	return b.String()
}

// searchRoot runs the level-synchronized BFS for one root. It returns
// true when a counterexample was recorded (the cell search stops).
func (s *searcher) searchRoot(rt root, rep *Report) (bool, error) {
	menu := byzMenu(s.p, rt.corrupt)
	s.digest = s.digest.String(rt.key).Int(len(menu)).Int(len(s.drops))

	frontier := []node{{}}
	seenTerminal := map[uint64]bool{}
	var terminals []node // distinct fully-decided prefixes, discovery order
	var violating []node // safety-violating prefixes, discovery order
	truncated := false

	for depth := 1; depth <= s.w && len(violating) == 0 && !truncated; depth++ {
		choices := s.roundChoices(menu, rt, depth)
		type cand struct{ nodeIdx, choiceIdx int }
		cands := make([]cand, 0, len(frontier)*len(choices))
		for ni := range frontier {
			for ci := range choices {
				cands = append(cands, cand{ni, ci})
			}
		}
		prefixOf := func(i int) []roundChoice {
			base := frontier[cands[i].nodeIdx].prefix
			prefix := make([]roundChoice, len(base)+1)
			copy(prefix, base)
			prefix[len(base)] = choices[cands[i].choiceIdx]
			return prefix
		}
		evals, err := exec.MapN(len(cands), s.workers, func(i int) (eval, error) {
			return s.eval(menu, rt, prefixOf(i), depth)
		})
		if err != nil {
			return false, err
		}
		// Sequential merge in candidate order keeps everything —
		// frontier order, counterexample choice, digest — independent
		// of the worker count.
		seen := map[uint64]bool{}
		var next []node
		for i, ev := range evals {
			rep.Executions++
			s.digest = s.digest.Int(depth).Uint64(ev.hash).Bool(ev.terminal).String(ev.safety)
			switch {
			case ev.safety != "":
				if len(violating) == 0 {
					violating = append(violating, node{prefix: prefixOf(i)})
				}
			case ev.terminal:
				if !seenTerminal[ev.hash] {
					seenTerminal[ev.hash] = true
					terminals = append(terminals, node{prefix: prefixOf(i)})
				}
			case seen[ev.hash]:
				rep.Merged++
			default:
				seen[ev.hash] = true
				next = append(next, node{prefix: prefixOf(i)})
			}
		}
		rep.States += len(seen)
		if len(next) > s.maxStates {
			truncated = true
			rep.Truncated = true
			next = next[:s.maxStates]
		}
		frontier = next
	}

	// A safety violation found inside the window is already a
	// counterexample; otherwise classify the full-horizon extension of
	// every distinct terminal and surviving frontier prefix (stationary
	// suffix) and take the first that violates. Terminals go first:
	// they were discovered at shallower depths.
	if len(violating) > 0 {
		return true, s.harvest(menu, rt, violating[0].prefix, rep)
	}
	tails := append(append([]node(nil), terminals...), frontier...)
	outs, err := exec.MapN(len(tails), s.workers, func(i int) (*fuzz.Outcome, error) {
		return fuzz.Run(s.scenario(menu, rt, tails[i].prefix, s.maxRounds, true), fuzz.Options{}), nil
	})
	if err != nil {
		return false, err
	}
	for i, o := range outs {
		rep.Executions++
		s.digest = s.digest.String(string(o.Class)).String(o.Digest)
		switch o.Class {
		case fuzz.ClassError, fuzz.ClassPanic:
			return false, fmt.Errorf("explore: tail run failed (%s): %s", o.Class, o.Detail)
		case fuzz.ClassExpected, fuzz.ClassViolation:
			return true, s.harvest(menu, rt, tails[i].prefix, rep)
		}
	}
	return false, nil
}

// eval executes one choice prefix for exactly its own length and
// summarizes the reached state: the canonical frontier hash, whether
// every correct slot decided, and any safety violation visible so far.
// Termination is deliberately not judged here — the window is shorter
// than the protocol's budget — that is the tail runs' job.
func (s *searcher) eval(menu []byzAction, rt root, prefix []roundChoice, depth int) (eval, error) {
	res, err := runScenario(s.scenario(menu, rt, prefix, depth, false))
	if err != nil {
		return eval{}, fmt.Errorf("explore: %w", err)
	}
	ev := eval{hash: s.frontierHash(res), terminal: res.AllDecided}
	// Decisions cannot be revised, so an agreement or validity violation
	// at any depth extends to a full violating execution.
	verdict := trace.Check(res)
	for _, p := range []trace.Property{trace.Agreement, trace.Validity} {
		if verdict.Has(p) {
			ev.safety = p.String()
			break
		}
	}
	return ev, nil
}

// runScenario executes one window scenario with per-slot history hashes
// on. A test substitutes it to hold every evaluated execution to the
// reference interpreter.
var runScenario = func(sc fuzz.Scenario) (*engine.Result, error) {
	cfg, err := sc.Config()
	if err != nil {
		return nil, err
	}
	cfg.FrontierHash = true
	return engine.Run(cfg)
}

// frontierHash canonicalizes the reached state under within-group slot
// permutations: per identifier group, the lexicographically sorted
// member tuples (corrupted?, input, delivered-history hash, decided?,
// decision), folded in group order. Correct processes are deterministic
// functions of (context, delivered history), so equal hashes mean
// equal-modulo-symmetry continuations.
func (s *searcher) frontierHash(res *engine.Result) uint64 {
	h := msg.NewStateHash()
	for id := 1; id <= s.p.L; id++ {
		members := s.groups[id]
		tuples := make([][4]uint64, 0, len(members))
		for _, sl := range members {
			var tp [4]uint64
			if res.IsCorrupted(sl) {
				tp[0] = 1
			} else {
				tp[1] = uint64(res.Inputs[sl]) + 1
				tp[2] = uint64(res.SlotHashes[sl])
				if res.DecidedAt[sl] != 0 {
					tp[3] = uint64(res.Decisions[sl]) + 1
				}
			}
			tuples = append(tuples, tp)
		}
		for i := 1; i < len(tuples); i++ {
			for j := i; j > 0 && tupleLess(tuples[j], tuples[j-1]); j-- {
				tuples[j], tuples[j-1] = tuples[j-1], tuples[j]
			}
		}
		h = h.Int(id)
		for _, tp := range tuples {
			for _, x := range tp {
				h = h.Uint64(x)
			}
		}
	}
	return uint64(h)
}

func tupleLess(a, b [4]uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// harvest turns a violating prefix into the report's counterexample: it
// collapses trailing repeated choices (minimality), re-classifies the
// collapsed scenario at full horizon, falls back to the uncollapsed
// prefix if collapsing somehow lost the violation, and packages the
// outcome as a corpus-ready seed.
func (s *searcher) harvest(menu []byzAction, rt root, prefix []roundChoice, rep *Report) error {
	sc := s.scenario(menu, rt, collapse(prefix), s.maxRounds, true)
	o := fuzz.Run(sc, fuzz.Options{})
	if !violates(o) {
		sc = s.scenario(menu, rt, prefix, s.maxRounds, true)
		o = fuzz.Run(sc, fuzz.Options{})
	}
	rep.Executions++
	if !violates(o) {
		return fmt.Errorf("explore: violating prefix did not replay (%s: %s)", o.Class, o.Detail)
	}
	props := strings.Join(o.Properties, "+")
	if props == "" {
		props = "violation"
	}
	name := fmt.Sprintf("%s-explore-%s-n%d-l%d-t%d", s.protoName, props, s.p.N, s.p.L, s.p.T)
	note := fmt.Sprintf("harvested by internal/explore: minimal %s counterexample for %s at gst=%d (bounded-exhaustive search, W=%d)",
		props, s.p, rt.gst, s.w)
	sf := fuzz.NewSeed(name, note, o)
	rep.Counterexample = &sf
	rep.Outcome = o
	s.digest = s.digest.String(o.Digest)
	return nil
}

func violates(o *fuzz.Outcome) bool {
	return o.Class == fuzz.ClassExpected || o.Class == fuzz.ClassViolation
}
