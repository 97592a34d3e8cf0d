// Package adversary provides reusable Byzantine strategies and message-
// delivery adversaries for the simulation kernel. An adversary is composed
// from three orthogonal pieces: which slots to corrupt (Selector), what the
// corrupted slots send (Behavior), and which messages to suppress before
// GST (DropPolicy). All pieces are deterministic in their seeds.
//
// Randomized pieces draw from math/rand in one of two ways:
//
//   - Per-scenario stream: the harness builds one *rand.Rand per scenario
//     with NewRand and threads it through the scenario's pieces via their
//     Rand field. The simulation engine is strictly sequential, so draws
//     happen in a deterministic order; no stream is ever shared across
//     scenarios, which keeps concurrent fuzz workers deterministic under
//     the race detector. This is the mode the fuzzer uses.
//   - Per-call derivation from Seed: the piece hashes (Seed, round, slot)
//     into a seed and re-seeds a pooled generator with it on every call
//     (seeded). Stateless and call-order independent; kept for
//     hand-written experiments and as the fallback when Rand is nil.
//
// DropPolicies deliberately never use a sequential stream: a drop decision
// must be a pure function of (round, from, to) so that shrinking a
// scenario's round budget or GST cannot retroactively change which early
// messages were suppressed.
package adversary

import (
	"math/rand"
	"sort"
	"sync"

	"homonyms/internal/engine"
	"homonyms/internal/hom"
	"homonyms/internal/inject"
	"homonyms/internal/msg"
)

// Selector chooses the corrupted slots.
type Selector interface {
	Select(p hom.Params, a hom.Assignment, inputs []hom.Value) []int
}

// Behavior produces the per-round sends of one corrupted slot.
type Behavior interface {
	Sends(round, slot int, view *engine.View) []msg.TargetedSend
}

// DropPolicy decides pre-GST message suppression.
type DropPolicy interface {
	Drop(round, fromSlot, toSlot int) bool
}

// BatchDropPolicy is an optional DropPolicy extension consumed by the
// engines' batched delivery path: the whole per-recipient batch is
// masked in one call instead of one Drop call per message. drop[i] must
// be set to the verdict for the message from fromSlots[i] to toSlot
// (entries arrive zeroed, so implementations only write true).
//
// The verdict for each pair must equal what Drop(round, fromSlots[i],
// toSlot) returns — the batch form is an optimisation, never a semantic
// change — and therefore must stay a pure function of (round, from, to).
// This is what keeps the engine's batched routing byte-identical to the
// per-message reference interpreter (package refmodel).
// Policies that can hoist recipient-level work out of the per-message
// loop (a target-set membership test, a partition group lookup)
// implement it; everything else is adapted by Composite's per-message
// fallback shim.
type BatchDropPolicy interface {
	DropBatch(round, toSlot int, fromSlots []int32, drop []bool)
}

// Composite assembles a full engine.Adversary from the three pieces. Nil
// pieces default to: corrupt nobody, send nothing, drop nothing.
type Composite struct {
	Selector Selector
	Behavior Behavior
	Drops    DropPolicy
}

var _ engine.Adversary = (*Composite)(nil)

// Corrupt implements engine.Adversary.
func (c *Composite) Corrupt(p hom.Params, a hom.Assignment, inputs []hom.Value) []int {
	if c.Selector == nil {
		return nil
	}
	return c.Selector.Select(p, a, inputs)
}

// Sends implements engine.Adversary.
func (c *Composite) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	if c.Behavior == nil {
		return nil
	}
	return c.Behavior.Sends(round, slot, view)
}

// Drop implements engine.Adversary.
func (c *Composite) Drop(round, fromSlot, toSlot int) bool {
	if c.Drops == nil {
		return false
	}
	return c.Drops.Drop(round, fromSlot, toSlot)
}

var _ engine.BatchDropper = (*Composite)(nil)

// DropBatch implements engine.BatchDropper: the batched engines mask one
// recipient's whole delivery batch in a single call. A policy that
// implements BatchDropPolicy is invoked vectorised; any other policy is
// replayed through its per-message Drop, so existing pieces keep working
// unchanged under batched delivery. A nil policy leaves the mask zeroed
// (nothing dropped).
func (c *Composite) DropBatch(round, toSlot int, fromSlots []int32, drop []bool) {
	switch d := c.Drops.(type) {
	case nil:
	case BatchDropPolicy:
		d.DropBatch(round, toSlot, fromSlots, drop)
	default:
		for i, from := range fromSlots {
			drop[i] = d.Drop(round, int(from), toSlot)
		}
	}
}

// NewRand returns the deterministic per-scenario stream shared by one
// scenario's randomized pieces. Build one per scenario and never share it
// across scenarios (or across goroutines).
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// rngPool recycles the generators behind the per-call derivation mode, one
// per (round, slot): each draws from an inject.Source, math/rand's stream
// computed lazily, so a reseed costs only the draws then made.
var rngPool = sync.Pool{New: func() any { return rand.New(new(inject.Source)) }}

// seeded returns a pooled generator positioned at the start of the
// stream rand.New(rand.NewSource(seed)) would produce — (*rand.Rand).Seed
// re-initialises the source and drops any buffered state, so the draws
// are the same, value for value. Hand it back with rngPool.Put once the
// call is done drawing.
func seeded(seed int64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// ---------------------------------------------------------------------------
// Selectors
// ---------------------------------------------------------------------------

// FirstT corrupts slots 0..T-1.
type FirstT struct{}

// Select implements Selector.
func (FirstT) Select(p hom.Params, _ hom.Assignment, _ []hom.Value) []int {
	out := make([]int, 0, p.T)
	for s := 0; s < p.T; s++ {
		out = append(out, s)
	}
	return out
}

// Slots corrupts an explicit slot list.
type Slots []int

// Select implements Selector.
func (s Slots) Select(hom.Params, hom.Assignment, []hom.Value) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}

// OnePerIdentifier corrupts, for each listed identifier, the first slot
// holding it. Useful for putting a Byzantine process inside chosen homonym
// groups.
type OnePerIdentifier []hom.Identifier

// Select implements Selector.
func (ids OnePerIdentifier) Select(_ hom.Params, a hom.Assignment, _ []hom.Value) []int {
	var out []int
	for _, want := range ids {
		for slot, id := range a {
			if id == want {
				out = append(out, slot)
				break
			}
		}
	}
	sort.Ints(out)
	return out
}

// RandomT corrupts T uniformly random slots. It draws from the
// per-scenario Rand stream when one is threaded in, and falls back to a
// throwaway source derived from Seed otherwise.
type RandomT struct {
	Seed int64
	Rand *rand.Rand
}

// Select implements Selector.
func (r RandomT) Select(p hom.Params, _ hom.Assignment, _ []hom.Value) []int {
	rng := r.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(r.Seed))
	}
	perm := rng.Perm(p.N)
	out := append([]int(nil), perm[:p.T]...)
	sort.Ints(out)
	return out
}

// ---------------------------------------------------------------------------
// Behaviors
// ---------------------------------------------------------------------------

// Silent sends nothing — the paper's lower-bound executions α and β use
// exactly this.
type Silent struct{}

// Sends implements Behavior.
func (Silent) Sends(int, int, *engine.View) []msg.TargetedSend { return nil }

// Crash behaves correctly-silently: it sends nothing from the beginning
// (a crash at time zero). For a crash after k rounds compose with Until.
type Crash struct{}

// Sends implements Behavior.
func (Crash) Sends(int, int, *engine.View) []msg.TargetedSend { return nil }

// Noise sends one random Raw payload to every recipient each round.
// Draws from the per-scenario Rand stream when set; otherwise
// deterministic in Seed, round and slot.
type Noise struct {
	Seed int64
	Rand *rand.Rand
}

// Sends implements Behavior.
func (nz Noise) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	rng := nz.Rand
	if rng == nil {
		rng = seeded(nz.Seed ^ int64(round)<<20 ^ int64(slot))
		defer rngPool.Put(rng)
	}
	out := make([]msg.TargetedSend, 0, view.Params.N)
	for to := 0; to < view.Params.N; to++ {
		out = append(out, msg.TargetedSend{
			ToSlot: to,
			Body:   msg.Raw(randomToken(rng)),
		})
	}
	return out
}

// Equivocate forwards, to each recipient, the current-round broadcast of
// some correct slot — a different one per recipient — so recipients see
// well-formed but mutually inconsistent protocol messages under the
// Byzantine slot's identifier. This is the strongest generic behaviour
// against threshold protocols because every injected payload parses.
type Equivocate struct {
	Seed int64
	Rand *rand.Rand
}

// Sends implements Behavior.
func (e Equivocate) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	senders := view.Senders()
	if len(senders) == 0 {
		return nil
	}
	rng := e.Rand
	if rng == nil {
		rng = seeded(e.Seed ^ int64(round)<<18 ^ int64(slot))
		defer rngPool.Put(rng)
	}
	out := make([]msg.TargetedSend, 0, view.Params.N)
	for to := 0; to < view.Params.N; to++ {
		src := senders[rng.Intn(len(senders))]
		if s := firstBroadcast(view.SendsOf(int(src))); s != nil {
			out = append(out, msg.TargetedSend{ToSlot: to, Body: s.Body, Forwards: s})
		}
	}
	return out
}

// firstBroadcast returns the first ToAll send of ss, or nil.
func firstBroadcast(ss []msg.Send) *msg.Send {
	for j := range ss {
		if ss[j].Kind == msg.ToAll {
			return &ss[j]
		}
	}
	return nil
}

// MimicFlood copies every current-round broadcast body of every correct
// slot to every recipient (unrestricted multi-send). Against innumerate
// receivers this floods each inbox with every plausible message of the
// round under the Byzantine identifier.
type MimicFlood struct{}

// Sends implements Behavior.
func (MimicFlood) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	senders := view.Senders()
	perRecipient := 0
	for _, src := range senders {
		for _, s := range view.SendsOf(int(src)) {
			if s.Kind == msg.ToAll {
				perRecipient++
			}
		}
	}
	if perRecipient == 0 {
		return nil
	}
	out := make([]msg.TargetedSend, 0, perRecipient*view.Params.N)
	for to := 0; to < view.Params.N; to++ {
		for _, src := range senders {
			ss := view.SendsOf(int(src))
			for j := range ss {
				if ss[j].Kind == msg.ToAll {
					out = append(out, msg.TargetedSend{ToSlot: to, Body: ss[j].Body, Forwards: &ss[j]})
				}
			}
		}
	}
	return out
}

// KeyEquivocate equivocates along identifier (key) boundaries: every
// recipient of one homonym group receives the same copied correct
// broadcast, but different groups receive broadcasts of different correct
// slots. Where Equivocate mixes per recipient slot, KeyEquivocate keeps
// each group internally consistent — which defeats protocols that treat
// within-group consistency as evidence of an honest sender.
type KeyEquivocate struct {
	Seed int64
	Rand *rand.Rand
}

// Sends implements Behavior.
func (e KeyEquivocate) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	senders := view.Senders()
	if len(senders) == 0 {
		return nil
	}
	rng := e.Rand
	if rng == nil {
		rng = seeded(e.Seed ^ int64(round)<<18 ^ int64(slot))
		defer rngPool.Put(rng)
	}
	// One source per identifier, drawn in identifier order so the stream
	// consumption is deterministic.
	srcOf := make([]int32, view.Params.L+1)
	for id := 1; id <= view.Params.L; id++ {
		srcOf[id] = senders[rng.Intn(len(senders))]
	}
	out := make([]msg.TargetedSend, 0, view.Params.N)
	for to := 0; to < view.Params.N; to++ {
		src := srcOf[view.Assignment[to]]
		if s := firstBroadcast(view.SendsOf(int(src))); s != nil {
			out = append(out, msg.TargetedSend{ToSlot: to, Body: s.Body, Forwards: s})
		}
	}
	return out
}

// ValueFlood floods every recipient, every round, with well-formed forged
// protocol messages for every value in Domain. Make builds the payloads
// and is protocol-specific (the fuzzer takes it from the target
// protocol's registry entry); a nil Make or empty Domain sends nothing.
// Unlike Noise, every injected payload parses, so this exercises the
// protocols' threshold logic rather than their parsers.
type ValueFlood struct {
	Domain []hom.Value
	Make   func(round int, v hom.Value) []msg.Payload
}

// Sends implements Behavior.
func (vf ValueFlood) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	if vf.Make == nil {
		return nil
	}
	var out []msg.TargetedSend
	for _, v := range vf.Domain {
		payloads := vf.Make(round, v)
		for to := 0; to < view.Params.N; to++ {
			for _, pl := range payloads {
				if pl == nil {
					continue
				}
				out = append(out, msg.TargetedSend{ToSlot: to, Body: pl})
			}
		}
	}
	return out
}

// Until runs Inner for rounds <= Round, then goes silent — e.g. a crash
// after a prefix of correct-looking behaviour.
type Until struct {
	Round int
	Inner Behavior
}

// Sends implements Behavior.
func (u Until) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	if round > u.Round || u.Inner == nil {
		return nil
	}
	return u.Inner.Sends(round, slot, view)
}

// ---------------------------------------------------------------------------
// Drop policies
// ---------------------------------------------------------------------------

// NoDrops never suppresses a message.
type NoDrops struct{}

// Drop implements DropPolicy.
func (NoDrops) Drop(int, int, int) bool { return false }

// DropBatch implements BatchDropPolicy: the mask stays zeroed.
func (NoDrops) DropBatch(int, int, []int32, []bool) {}

// RandomDrops suppresses each (round, from, to) delivery independently
// with probability Prob, deterministically in Seed. The engine already
// refuses drops at or after GST and on self-deliveries.
type RandomDrops struct {
	Seed int64
	Prob float64
}

// Drop implements DropPolicy: the same inject.LinkCoin the injector's
// probabilistic omissions and delays flip.
func (r RandomDrops) Drop(round, from, to int) bool {
	return inject.LinkCoin(r.Seed, round, from, to) < r.Prob
}

// DropBatch implements BatchDropPolicy. Each pair's verdict is the same
// hash-pure function as Drop.
func (r RandomDrops) DropBatch(round, toSlot int, fromSlots []int32, drop []bool) {
	for i, from := range fromSlots {
		if r.Drop(round, int(from), toSlot) {
			drop[i] = true
		}
	}
}

// TargetedDrops isolates chosen victim slots before GST: it suppresses
// messages sent to the targets (Inbound), from the targets (Outbound), or
// both. A targeted partition of a homonym group is the sharpest pre-GST
// starvation the model allows, since the engine already refuses drops at
// or after GST and on self-deliveries.
type TargetedDrops struct {
	Targets  []int
	Inbound  bool
	Outbound bool
}

// Drop implements DropPolicy.
func (td TargetedDrops) Drop(_, from, to int) bool {
	for _, s := range td.Targets {
		if td.Inbound && s == to {
			return true
		}
		if td.Outbound && s == from {
			return true
		}
	}
	return false
}

// DropBatch implements BatchDropPolicy. The recipient-side test (is
// toSlot a target?) is decided once for the whole batch: an inbound
// target drops everything in one pass, and only the outbound membership
// test remains per sender.
func (td TargetedDrops) DropBatch(_, toSlot int, fromSlots []int32, drop []bool) {
	if td.Inbound {
		for _, s := range td.Targets {
			if s == toSlot {
				for i := range drop {
					drop[i] = true
				}
				return
			}
		}
	}
	if !td.Outbound {
		return
	}
	for i, from := range fromSlots {
		for _, s := range td.Targets {
			if s == int(from) {
				drop[i] = true
				break
			}
		}
	}
}

// PartitionDrops suppresses every message that crosses between groups, as
// in the paper's Figure-4 construction. GroupOf maps a slot to its side;
// slots mapped to a negative group are never partitioned.
type PartitionDrops struct {
	GroupOf func(slot int) int
}

// Drop implements DropPolicy.
func (p PartitionDrops) Drop(_, from, to int) bool {
	if p.GroupOf == nil {
		return false
	}
	gf, gt := p.GroupOf(from), p.GroupOf(to)
	return gf >= 0 && gt >= 0 && gf != gt
}

// DropBatch implements BatchDropPolicy: the recipient's group is looked
// up once per batch instead of once per message, and an unpartitioned
// recipient (negative group) short-circuits the whole batch.
func (p PartitionDrops) DropBatch(_, toSlot int, fromSlots []int32, drop []bool) {
	if p.GroupOf == nil {
		return
	}
	gt := p.GroupOf(toSlot)
	if gt < 0 {
		return
	}
	for i, from := range fromSlots {
		if gf := p.GroupOf(int(from)); gf >= 0 && gf != gt {
			drop[i] = true
		}
	}
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

const tokenAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

func randomToken(rng *rand.Rand) string {
	b := make([]byte, 8)
	for i := range b {
		b[i] = tokenAlphabet[rng.Intn(len(tokenAlphabet))]
	}
	return string(b)
}
