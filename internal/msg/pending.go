package msg

// PendingEntry is one held (send, recipient) delivery of the
// eventually-synchronous time model: a message a timing fault kept in
// flight past its send round. The body is captured at hold time — the
// send arena is round scratch and resets before the entry surfaces —
// and re-stamped into the due round's arena when the delivery drains.
// The retransmit fields are the sender's timeout state: NextRetry is
// the round its next retransmission fires (0 when no timer runs) and
// Attempt counts retransmissions fired so far (the backoff exponent).
type PendingEntry struct {
	From, To  int32   // sender and recipient slots
	Body      Payload // captured from the send arena at hold time
	SentRound int32   // round the original send was stamped
	Due       int32   // round the delivery surfaces (always > hold round)
	NextRetry int32   // next retransmit round; 0 = no timer
	Attempt   int32   // retransmit attempts fired so far
}

// PendingQueue is the engine's cross-round queue of held deliveries.
// Entries are appended in routing order and drained in that same order,
// which is what keeps the state representations byte-identical under
// timing faults. The zero value is ready to use.
type PendingQueue struct {
	entries []PendingEntry
}

// Reset empties the queue for a new execution, keeping capacity.
func (q *PendingQueue) Reset() {
	clear(q.entries)
	q.entries = q.entries[:0]
}

// Len returns the number of live (undelivered) entries.
func (q *PendingQueue) Len() int { return len(q.entries) }

// Hold appends one held delivery.
func (q *PendingQueue) Hold(e PendingEntry) {
	q.entries = append(q.entries, e)
}

// At returns the i-th live entry for in-place mutation (retransmit
// bookkeeping). Valid until the next Drop.
func (q *PendingQueue) At(i int) *PendingEntry { return &q.entries[i] }

// Drop removes every entry whose Due is at or before the given round —
// the entries the engine just drained — preserving the order of the
// survivors.
func (q *PendingQueue) Drop(round int32) {
	kept := q.entries[:0]
	for _, e := range q.entries {
		if e.Due > round {
			kept = append(kept, e)
		}
	}
	// Clear the tail so dropped entries release their payload references.
	for i := len(kept); i < len(q.entries); i++ {
		q.entries[i] = PendingEntry{}
	}
	q.entries = kept
}
