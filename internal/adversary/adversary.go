// Package adversary provides reusable Byzantine strategies and message-
// delivery adversaries for the simulation kernel. An adversary is composed
// from three orthogonal pieces: which slots to corrupt (Selector), what the
// corrupted slots send (Behavior), and which messages to suppress before
// GST (DropPolicy). All pieces are deterministic in their seeds.
//
// Randomized pieces keep no random state: every choice is one
// inject.Draw, a pure function of (Seed, round, slot, k) — k the position
// RandomT fills, Noise's and Equivocate's recipient, KeyEquivocate's
// identifier. So a piece answers the same whatever the order in which
// the engine asks it, and however often; pieces sharing one seed draw
// from separate inject streams. A drop decision in particular is a pure
// function of (round, from, to), so shrinking a scenario's round budget
// or GST cannot retroactively change which early messages were
// suppressed.
package adversary

import (
	"sort"
	"strconv"

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

// StateFingerprint implements engine.StateHasher: the behaviour's
// fingerprint when it has one (ScriptBehavior's shadows), else the hash
// basis. Selectors, drop policies and the randomized behaviours are pure
// in their seeds, so they have no state to fingerprint.
func (c *Composite) StateFingerprint() msg.StateHash {
	if h, ok := c.Behavior.(engine.StateHasher); ok {
		return h.StateFingerprint()
	}
	return msg.NewStateHash()
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

// RandomT corrupts T uniformly random slots, deterministically in Seed:
// a partial Fisher–Yates shuffle whose k-th swap draws with k = position.
type RandomT struct {
	Seed int64
}

// Select implements Selector.
func (r RandomT) Select(p hom.Params, _ hom.Assignment, _ []hom.Value) []int {
	perm := make([]int, p.N)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < p.T; i++ {
		j := i + inject.Intn(inject.Draw(r.Seed, inject.StreamSelect, 0, 0, i), p.N-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
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

// Noise sends one random Raw payload to every recipient each round,
// deterministically in Seed: one draw per recipient, spelt in base 36.
type Noise struct {
	Seed int64
}

// Sends implements Behavior.
func (nz Noise) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	out := view.SendBuffer(view.Params.N)
	for to := 0; to < view.Params.N; to++ {
		out = append(out, msg.TargetedSend{
			ToSlot: to,
			Body:   msg.Raw(strconv.FormatUint(inject.Draw(nz.Seed, inject.StreamNoise, round, slot, to), 36)),
		})
	}
	return out
}

// Equivocate forwards, to each recipient, the current-round broadcast of
// some correct slot — a different one per recipient — so recipients see
// well-formed but mutually inconsistent protocol messages under the
// Byzantine slot's identifier. This is the strongest generic behaviour
// against threshold protocols because every injected payload parses. The
// copied slot is drawn per recipient, deterministically in Seed.
type Equivocate struct {
	Seed int64
}

// Sends implements Behavior.
func (e Equivocate) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	return equivocate(e.Seed, round, slot, view, false)
}

// equivocate sends each recipient the first broadcast of a correct slot
// drawn with k = the recipient, or its identifier when byIdentifier.
func equivocate(seed int64, round, slot int, view *engine.View, byIdentifier bool) []msg.TargetedSend {
	senders := view.Senders()
	if len(senders) == 0 {
		return nil
	}
	out := view.SendBuffer(view.Params.N)
	for to := 0; to < view.Params.N; to++ {
		k := to
		if byIdentifier {
			k = int(view.Assignment[to])
		}
		src := senders[inject.Intn(inject.Draw(seed, inject.StreamEquivocate, round, slot, k), len(senders))]
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
	out := view.SendBuffer(perRecipient * view.Params.N)
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
// within-group consistency as evidence of an honest sender. The copied
// slot is drawn per identifier, deterministically in Seed.
type KeyEquivocate struct {
	Seed int64
}

// Sends implements Behavior.
func (e KeyEquivocate) Sends(round, slot int, view *engine.View) []msg.TargetedSend {
	return equivocate(e.Seed, round, slot, view, true)
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
	// Make every value's payloads first, so the buffer is asked for at
	// the round's full size and never grows out of the engine's storage.
	var small [4][]msg.Payload
	made, total := small[:0], 0
	for _, v := range vf.Domain {
		payloads := vf.Make(round, v)
		made = append(made, payloads)
		for _, pl := range payloads {
			if pl != nil {
				total++
			}
		}
	}
	out := view.SendBuffer(total * view.Params.N)
	for _, payloads := range made {
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

// StateFingerprint implements engine.StateHasher through Inner.
func (u Until) StateFingerprint() msg.StateHash {
	if h, ok := u.Inner.(engine.StateHasher); ok {
		return h.StateFingerprint()
	}
	return msg.NewStateHash()
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
