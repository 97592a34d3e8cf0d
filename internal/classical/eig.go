package classical

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"homonyms/internal/hom"
	"homonyms/internal/msg"
)

// EIG is the exponential-information-gathering Byzantine agreement
// algorithm (Pease–Shostak–Lamport style) for ℓ processes with unique
// identifiers, tolerating t Byzantine faults when ℓ > 3t. It runs t+1
// rounds; messages at round r carry the level-(r−1) frontier of the EIG
// tree, so message size is exponential in t — acceptable for the small
// instances the paper's constructions need, and the price of optimal
// resilience, which the transformation T(A) requires (ℓ > 3t exactly
// matches EIG's requirement).
type EIG struct {
	l, t         int
	domain       []hom.Value
	rounds       int
	defaultValue hom.Value
	// idBits is the width of one packed label element (see Label).
	idBits uint
}

var _ Algorithm = (*EIG)(nil)

// Label is a packed EIG tree path: a sequence of distinct identifiers,
// each stored in idBits bits, most-significant element first. The root is
// the zero Label; extending appends an identifier at the low end.
// Identifiers are ≥ 1, so every stored element is a non-zero chunk and
// the level of a label is simply its chunk count. Packing the paths turns
// the per-round tree bookkeeping (store, contains, well-formedness,
// resolution) into integer work — no string splitting or concatenation —
// and the tree itself into integer-keyed storage.
type Label uint64

// RootLabel is the empty path (the EIG tree root).
const RootLabel Label = 0

// NewEIG builds an EIG instance for l processes tolerating t faults over
// the given domain (nil means binary {0,1}).
func NewEIG(l, t int, domain []hom.Value) (*EIG, error) {
	if t < 0 {
		return nil, ErrBadFaults
	}
	if l <= 3*t {
		return nil, ErrEIGResilience
	}
	return newEIG(l, t, domain)
}

// NewEIGUnchecked builds an EIG instance without the l > 3t resilience
// check; it still refuses a single identifier when t > 0. The synchom
// registry entry builds through it, so core.Select checks the condition
// first, while the impossibility experiments (package attacks) run it
// with too few identifiers so the paper's lower-bound constructions can
// exhibit how it fails.
func NewEIGUnchecked(l, t int, domain []hom.Value) (*EIG, error) {
	if t < 0 {
		return nil, ErrBadFaults
	}
	if l < 2 && t > 0 {
		return nil, ErrEIGResilience
	}
	return newEIG(l, t, domain)
}

func newEIG(l, t int, domain []hom.Value) (*EIG, error) {
	if domain == nil {
		domain = hom.DefaultDomain()
	}
	if err := validateDomain(domain); err != nil {
		return nil, err
	}
	idBits := uint(bits.Len(uint(l)))
	if idBits*uint(t+1) > 64 {
		// A t+1-level path must pack into 64 bits. Instances beyond that
		// are unreachable in practice: EIG messages are exponential in t,
		// so such a run would not terminate anyway.
		return nil, ErrEIGTooLarge
	}
	return &EIG{l: l, t: t, domain: domain, rounds: t + 1, defaultValue: domain[0], idBits: idBits}, nil
}

// Name implements Algorithm.
func (e *EIG) Name() string { return "eig" }

// Processes implements Algorithm.
func (e *EIG) Processes() int { return e.l }

// Faults implements Algorithm.
func (e *EIG) Faults() int { return e.t }

// DecisionRound implements Algorithm: every correct process decides at the
// end of round t+1.
func (e *EIG) DecisionRound() int { return e.rounds }

// eigState is the EIG process state: the information-gathering tree plus
// the decision once resolved. The tree holds one entry per stored label
// in ascending Label order, which is level-major (a deeper label packs
// more chunks, so it is numerically larger) and path order within a
// level: the canonical key and each frontier message read it in place.
// The root is never stored. States are shared between processes, so a
// frozen state's tree is never written again.
type eigState struct {
	id      hom.Identifier
	input   hom.Value
	tree    []EIGEntry
	decided hom.Value
	key     string
}

// Key implements msg.Payload (states travel during selection rounds of the
// transformation).
func (s *eigState) Key() string { return s.key }

func (e *EIG) freezeState(s *eigState) *eigState {
	var buf [64]byte
	head := append(buf[:0], "eigstate|"...)
	head = strconv.AppendInt(head, int64(s.id), 10)
	head = append(head, '|')
	head = strconv.AppendInt(head, int64(s.input), 10)
	head = append(head, '|')
	head = strconv.AppendInt(head, int64(s.decided), 10)
	s.key = entriesKey(head, s.tree)
	return s
}

// entriesKey returns head followed by one "|label=value" field per entry.
// The entries are in label order, so the last label is the widest and one
// allocation holds the key unless values run past one digit.
func entriesKey(head []byte, entries []EIGEntry) string {
	var b strings.Builder
	var num [20]byte
	width := 0
	if n := len(entries); n > 0 {
		width = 3 + len(strconv.AppendUint(num[:0], uint64(entries[n-1].Label), 10))
	}
	b.Grow(len(head) + len(entries)*width)
	b.Write(head)
	for _, en := range entries {
		b.WriteByte('|')
		b.Write(strconv.AppendUint(num[:0], uint64(en.Label), 10))
		b.WriteByte('=')
		b.Write(strconv.AppendInt(num[:0], int64(en.Val), 10))
	}
	return b.String()
}

// Init implements Algorithm.
func (e *EIG) Init(id hom.Identifier, v hom.Value) State {
	return e.freezeState(&eigState{
		id:      id,
		input:   e.clampValue(v),
		decided: hom.NoValue,
	})
}

func (e *EIG) clampValue(v hom.Value) hom.Value {
	return e.domain[valueIndex(e.domain, v)]
}

// EIGEntry is one (label, value) pair of an EIG message.
type EIGEntry struct {
	Label Label
	Val   hom.Value
}

// EIGPayload carries one frontier level of the sender's EIG tree.
type EIGPayload struct {
	Level   int
	Entries []EIGEntry // sorted by packed label
	key     string
}

// NewEIGPayload builds a payload with canonical ordering and a cached key.
func NewEIGPayload(level int, entries []EIGEntry) *EIGPayload {
	sorted := append([]EIGEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Label < sorted[j].Label })
	return sealEIGPayload(level, sorted)
}

// sealEIGPayload wraps entries already in label order, keying them.
func sealEIGPayload(level int, sorted []EIGEntry) *EIGPayload {
	var buf [32]byte
	head := strconv.AppendInt(append(buf[:0], "eigmsg|"...), int64(level), 10)
	return &EIGPayload{Level: level, Entries: sorted, key: entriesKey(head, sorted)}
}

// Key implements msg.Payload.
func (p *EIGPayload) Key() string { return p.key }

// Message implements Algorithm. In round 1 a process broadcasts its input
// (the root entry); in round r > 1 it relays every level-(r−1) tree entry
// whose label does not contain its own identifier. Those entries are one
// contiguous run of the label-sorted tree, already in payload order.
func (e *EIG) Message(s State, round int) msg.Payload {
	st, ok := s.(*eigState)
	if !ok || round > e.rounds {
		return nil
	}
	if round == 1 {
		return sealEIGPayload(0, []EIGEntry{{Label: RootLabel, Val: st.input}})
	}
	level := round - 1
	run := e.levelRun(st.tree, level)
	entries := make([]EIGEntry, 0, len(run))
	for _, en := range run {
		if !e.labelContains(en.Label, st.id) {
			entries = append(entries, en)
		}
	}
	return sealEIGPayload(level, entries)
}

// levelRun returns the contiguous run of the label-sorted tree holding
// the level-`level` labels: those in [2^(idBits·(level−1)), 2^(idBits·level)).
func (e *EIG) levelRun(tree []EIGEntry, level int) []EIGEntry {
	if level < 1 || uint(level-1)*e.idBits >= 64 {
		return nil
	}
	lo, _ := slices.BinarySearchFunc(tree, Label(1)<<(uint(level-1)*e.idBits), entryCmp)
	hi := len(tree)
	if shift := uint(level) * e.idBits; shift < 64 {
		hi, _ = slices.BinarySearchFunc(tree, Label(1)<<shift, entryCmp)
	}
	return tree[lo:hi]
}

func entryCmp(en EIGEntry, lbl Label) int { return cmp.Compare(en.Label, lbl) }

// Transition implements Algorithm. Receiving entry (σ, v) from identifier
// j stores v at label σ·j, provided σ is a well-formed level-(r−1) label
// not containing j. At the end of round t+1 the tree is resolved
// bottom-up by recursive strict majority and the decision fixed.
func (e *EIG) Transition(s State, round int, received []msg.Message) State {
	st, ok := s.(*eigState)
	if !ok || round > e.rounds {
		return s
	}
	size := 0
	for _, m := range received {
		if p, ok := m.Body.(*EIGPayload); ok && p.Level == round-1 {
			size += len(p.Entries)
		}
	}
	kids := make([]EIGEntry, 0, size)
	for _, m := range received {
		p, ok := m.Body.(*EIGPayload)
		if !ok || p.Level != round-1 {
			continue
		}
		for _, en := range p.Entries {
			if !e.wellFormedLabel(en.Label, round-1, m.ID) {
				continue
			}
			kids = append(kids, EIGEntry{Label: e.extendLabel(en.Label, m.ID), Val: e.clampValue(en.Val)})
		}
	}
	next := &eigState{
		id:      st.id,
		input:   st.input,
		tree:    mergeTree(st.tree, kids),
		decided: st.decided,
	}
	if round == e.rounds && next.decided == hom.NoValue {
		next.decided = e.resolve(next.tree)
	}
	return e.freezeState(next)
}

// mergeTree returns the tree that storing kids into tree one by one would
// leave: a kid replaces the stored entry of its label, and among kids of
// one label the last received wins (the stable sort keeps their arrival
// order). The result is a fresh slice — tree belongs to a shared state
// and is never written — or tree itself when there is nothing to store.
func mergeTree(tree, kids []EIGEntry) []EIGEntry {
	if len(kids) == 0 {
		return tree
	}
	slices.SortStableFunc(kids, func(a, b EIGEntry) int { return cmp.Compare(a.Label, b.Label) })
	out := make([]EIGEntry, 0, len(tree)+len(kids))
	i := 0
	for k, kid := range kids {
		if k+1 < len(kids) && kids[k+1].Label == kid.Label {
			continue
		}
		for i < len(tree) && tree[i].Label < kid.Label {
			out = append(out, tree[i])
			i++
		}
		if i < len(tree) && tree[i].Label == kid.Label {
			i++
		}
		out = append(out, kid)
	}
	return append(out, tree[i:]...)
}

// Decide implements Algorithm.
func (e *EIG) Decide(s State) hom.Value {
	st, ok := s.(*eigState)
	if !ok {
		return hom.NoValue
	}
	return st.decided
}

// resolve computes the recursive strict-majority value of the tree: a
// leaf (level t+1) resolves to its stored value (default if missing); an
// inner node resolves to the strict majority of its children's
// resolutions, or the default value when no strict majority exists.
func (e *EIG) resolve(tree []EIGEntry) hom.Value {
	counts := make([]int, e.rounds*len(e.domain))
	return e.domain[e.resolveAt(tree, RootLabel, 0, counts)]
}

// resolveAt resolves the subtree at the level-`level` label to a domain
// index (index 0 is the default value). Leaves are found by binary
// search; children's resolutions are counted in the level's row of
// counts, which deeper levels never touch.
func (e *EIG) resolveAt(tree []EIGEntry, label Label, level int, counts []int) int {
	if level == e.rounds {
		if i, ok := slices.BinarySearchFunc(tree, label, entryCmp); ok {
			return valueIndex(e.domain, tree[i].Val)
		}
		return 0
	}
	row := counts[level*len(e.domain) : (level+1)*len(e.domain)]
	clear(row)
	children := 0
	for j := 1; j <= e.l; j++ {
		id := hom.Identifier(j)
		if e.labelContains(label, id) {
			continue
		}
		children++
		row[e.resolveAt(tree, e.extendLabel(label, id), level+1, counts)]++
	}
	for v, c := range row {
		if 2*c > children {
			return v
		}
	}
	return 0
}

// wellFormedLabel checks that lbl is a level-`level` packed label over
// distinct valid identifiers, none equal to sender (a process never
// relays a label containing its own identifier, so such an entry is
// forged). Byzantine senders control the raw bits, so residue beyond the
// declared level is rejected too.
func (e *EIG) wellFormedLabel(lbl Label, level int, sender hom.Identifier) bool {
	if level < 0 || uint(level)*e.idBits > 64 {
		return false
	}
	mask := Label(1)<<e.idBits - 1
	// Distinctness runs over the already-consumed suffix rather than a
	// 64-bit seen bitmap: identifiers may exceed 63, and a label has at
	// most 64/idBits chunks, so the quadratic scan is a handful of
	// integer compares.
	rest := lbl
	for i := 0; i < level; i++ {
		id := int(rest & mask)
		rest >>= e.idBits
		if id < 1 || id > e.l || hom.Identifier(id) == sender {
			return false
		}
	}
	if rest != 0 {
		return false
	}
	// Pairwise distinctness of the level chunks.
	for i := 0; i < level; i++ {
		ci := (lbl >> (uint(i) * e.idBits)) & mask
		for j := i + 1; j < level; j++ {
			if ci == (lbl>>(uint(j)*e.idBits))&mask {
				return false
			}
		}
	}
	return true
}

// labelLevel returns the number of path elements packed in lbl. Valid
// labels store only identifiers ≥ 1, so every element is a non-zero
// chunk.
func (e *EIG) labelLevel(lbl Label) int {
	level := 0
	for lbl != 0 {
		lbl >>= e.idBits
		level++
	}
	return level
}

// labelContains reports whether the packed path contains id.
func (e *EIG) labelContains(lbl Label, id hom.Identifier) bool {
	mask := Label(1)<<e.idBits - 1
	for lbl != 0 {
		if hom.Identifier(lbl&mask) == id {
			return true
		}
		lbl >>= e.idBits
	}
	return false
}

// extendLabel appends id to the packed path.
func (e *EIG) extendLabel(lbl Label, id hom.Identifier) Label {
	return lbl<<e.idBits | Label(id)
}

// LabelFromPath packs an identifier path (root to leaf) for tests and
// experiment harnesses.
func (e *EIG) LabelFromPath(path ...hom.Identifier) Label {
	lbl := RootLabel
	for _, id := range path {
		lbl = e.extendLabel(lbl, id)
	}
	return lbl
}
