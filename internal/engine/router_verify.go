package engine

import (
	"fmt"

	"homonyms/internal/msg"
)

// InvariantError reports a failed paranoid-mode router invariant
// (Config.Invariants). It surfaces from Run like any engine error,
// carrying the round and the name of the check that failed.
type InvariantError struct {
	Round  int
	Check  string
	Detail string
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("router invariant %q violated at round %d: %s", e.Check, e.Round, e.Detail)
}

// verifyRound validates the router's per-round invariants after the
// engine has consumed the round (paranoid mode, Config.Invariants):
//
//   - inbox-issued: no slot drew two inboxes this round, no bad slot one;
//   - stamp-memo: every entry stamped from a sender's memo carries the
//     KeyID and key length its key, re-derived through BuildKey, has;
//   - row-order: every recipient's candidate batch is in strictly
//     ascending stamp order — the send-major order the model delivers in,
//     which holds only if each tail entry was stamped after the last
//     entry of its group row and the batch reads row ++ tail;
//   - pending-overdue: no held delivery is queued past its due round;
//
// and, in a round that went through the slot stage:
//
//   - arena-bounds: every delivered index points into the round's arena;
//   - class-equality: for one shared class, a non-representative member's
//     candidate is rebuilt from its row and tail, re-masked from scratch
//     and compared byte for byte against the representative's delivered
//     batch — the spot check that catches a classifier that shared
//     batches which were never actually equal (it never looks at tails
//     alone, which is how flush matched them).
//
// Returns nil when r.verify is off or everything holds; otherwise the
// first *InvariantError found.
func (r *Router) verifyRound() error {
	if !r.verify {
		return nil
	}
	for to, took := range r.issued {
		if took > 1 || (took > 0 && r.isBad[to]) {
			return &InvariantError{
				Round: r.round, Check: "inbox-issued",
				Detail: fmt.Sprintf("slot %d (bad=%v) took %d inboxes", to, r.isBad[to], took),
			}
		}
	}
	for _, si := range r.memoStamped {
		body := r.arena.Body(si)
		bodyKey := body.Key() // a ScratchKeyer's Key is its BuildKey
		want := r.intern.Lookup(msg.NewMessageKeyed(r.arena.ID(si), body, bodyKey).Key())
		if r.arena.KID(si) != want || int(r.sendKeyLen[si]) != len(bodyKey) {
			return &InvariantError{
				Round: r.round, Check: "stamp-memo",
				Detail: fmt.Sprintf("send %d from slot %d was stamped from a memo as KeyID %d, key length %d; its key %q is KeyID %d, length %d",
					si, r.sendFrom[si], r.arena.KID(si), r.sendKeyLen[si], bodyKey, want, len(bodyKey)),
			}
		}
	}
	for to := 0; to < r.n; to++ {
		cand := r.rows[r.assignment[to]-1]
		if !r.flat {
			cand = r.candidate(to)
		}
		for i := 1; i < len(cand); i++ {
			if cand[i] <= cand[i-1] {
				return &InvariantError{
					Round: r.round, Check: "row-order",
					Detail: fmt.Sprintf("slot %d's candidate batch holds entry %d after entry %d", to, cand[i], cand[i-1]),
				}
			}
		}
	}
	if r.timing {
		// Every live pending entry must still be in the future: an entry
		// at or before the current round was missed by the drain.
		for i := 0; i < r.pq.Len(); i++ {
			if e := r.pq.At(i); e.Due <= int32(r.round) {
				return &InvariantError{
					Round: r.round, Check: "pending-overdue",
					Detail: fmt.Sprintf("held delivery %d->%d (sent round %d) still queued with due %d",
						e.From, e.To, e.SentRound, e.Due),
				}
			}
		}
	}
	if r.flat {
		return nil
	}
	st := r.slots
	arenaLen := int32(r.arena.Len())
	for to := 0; to < r.n; to++ {
		for _, si := range st.rawIdx[to] {
			if si < 0 || si >= arenaLen {
				return &InvariantError{
					Round: r.round, Check: "arena-bounds",
					Detail: fmt.Sprintf("slot %d holds arena index %d outside [0,%d)", to, si, arenaLen),
				}
			}
		}
	}
	for rep := 0; rep < r.n; rep++ {
		if st.classSize[rep] <= 1 {
			continue
		}
		for to := 0; to < r.n; to++ {
			if to == rep || st.shareRep[to] != int32(rep) {
				continue
			}
			var bs batchStats
			r.verifyScratch = r.maskBatch(to, r.candidate(to), r.verifyScratch[:0], &bs)
			// Key-level classification can share batches whose arena
			// indices differ, so the spot check uses the classifier's own
			// notion of equality (sameBatch), not raw indices.
			if !r.sameBatch(r.verifyScratch, st.rawIdx[rep]) {
				return &InvariantError{
					Round: r.round, Check: "class-equality",
					Detail: fmt.Sprintf("slot %d shares rep %d's inbox but re-masking its batch gives %d entries vs %d",
						to, rep, len(r.verifyScratch), len(st.rawIdx[rep])),
				}
			}
			return nil // one spot check per round is the cost budget
		}
	}
	return nil
}
