package msg

import (
	"strconv"
	"sync"
)

// KeyID is a dense integer handle for a canonical key inside one
// Interner. IDs are assigned in first-intern order starting at 1, so a
// KeyID doubles as a stable per-execution insertion index and can index
// arena-backed tables directly (slot KeyID-1, or KeyID with a spare 0
// slot). The zero value NoKey means "not interned".
//
// KeyIDs are only meaningful relative to the Interner that issued them:
// two executions with their own interners assign IDs independently, and
// an interner Reset invalidates every previously issued ID.
type KeyID uint32

// NoKey is the KeyID of a message that was never interned.
const NoKey KeyID = 0

// Interner maps canonical key strings to dense KeyIDs. It is the hot-path
// symbolization table of the simulator: the engines intern every
// delivered message's canonical key once at send time, after which
// inboxes and protocol tables compare and count integers instead of
// hashing strings per delivery.
//
// Assignment is deterministic: the i-th distinct key interned gets KeyID
// i (1-based), so any two runs that intern the same keys in the same
// order agree on every ID. The engines intern at stamp time, in send
// order, which is itself deterministic, so parallel experiment grids
// stay byte-identical across worker counts.
//
// Invariants:
//
//   - Reset (and Recycle, which Resets) invalidates every previously
//     issued KeyID; nothing that outlives the execution may hold one.
//   - KeyIDs are only comparable within the interner that issued them.
//   - Strings returned by Key/InternMessageKey alias the intern table
//     and die with the next Reset.
//   - An Interner is not safe for concurrent use; each execution (or
//     each process, for process-local tables) owns its own.
//   - One process, one interner: whoever builds inboxes for a process
//     stamps all of them through the same Interner for the process's
//     whole life (or leaves all of them uninterned). That is what lets a
//     receive path keep a table indexed by Inbox.PayloadIDAt across
//     rounds and look a re-delivered payload up instead of rebuilding its
//     key. The tables stay private: an ID is an index, never a name — it
//     must not be hashed, fingerprinted or compared across executions.
type Interner struct {
	ids      map[string]KeyID
	keys     []string    // KeyID -> canonical key; keys[0] is the NoKey slot
	payloads []PayloadID // KeyID -> the message key's payload ID; NoPayload for other keys
	pids     map[string]PayloadID
	scratch  []byte // reused by InternMessageKey
	epoch    uint32 // Resets so far: what a StampMemo's KeyID is valid against
}

// PayloadID is a dense handle for the payload part of an interned message
// key: the messages of every sender identifier that carry one payload
// share it. IDs are assigned at 1, 2, ... in the order message keys first
// bring their payloads to the interner, and are valid under the same rules
// as KeyIDs. The zero value NoPayload means none.
type PayloadID uint32

// NoPayload is the PayloadID of a key that is no interned message key.
const NoPayload PayloadID = 0

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]KeyID), keys: make([]string, 1),
		payloads: make([]PayloadID, 1), pids: make(map[string]PayloadID)}
}

// internPool recycles interners across executions (the "engine scratch"
// pattern: the engine acquires one per run and recycles it afterwards,
// so steady-state grids reuse the map buckets and the key backing array).
var internPool = sync.Pool{New: func() any { return NewInterner() }}

// NewPooledInterner returns a reset interner from the shared pool. The
// caller owns it until Recycle.
func NewPooledInterner() *Interner {
	it := internPool.Get().(*Interner)
	it.Reset()
	return it
}

// Recycle resets the interner and returns it to the pool. Every KeyID it
// issued becomes invalid.
func (it *Interner) Recycle() {
	it.Reset()
	internPool.Put(it)
}

// Reset forgets every interned key but keeps the allocated capacity. IDs
// restart at 1.
func (it *Interner) Reset() {
	clear(it.ids)
	clear(it.keys) // drop string references so recycled interners retain no garbage
	it.keys = it.keys[:1]
	clear(it.pids)
	it.payloads = it.payloads[:1]
	it.epoch++
}

// Len returns the number of interned keys. Valid KeyIDs are 1..Len().
func (it *Interner) Len() int { return len(it.keys) - 1 }

// Intern returns the KeyID of key, assigning the next dense ID on first
// sight.
func (it *Interner) Intern(key string) KeyID {
	if id, ok := it.ids[key]; ok {
		return id
	}
	return it.add(key)
}

// InternBytes is Intern for a scratch-built key. When the key is already
// known the lookup allocates nothing (the compiler elides the string
// conversion in the map read); only a first sight materialises the
// string.
func (it *Interner) InternBytes(key []byte) KeyID {
	if id, ok := it.ids[string(key)]; ok {
		return id
	}
	return it.add(string(key))
}

// Lookup returns the KeyID of key without interning it; NoKey if unseen.
func (it *Interner) Lookup(key string) KeyID { return it.ids[key] }

// add registers a new key under the next dense ID.
func (it *Interner) add(key string) KeyID {
	id := KeyID(len(it.keys))
	it.ids[key] = id
	it.keys = append(it.keys, key)
	it.payloads = append(it.payloads, NoPayload)
	return id
}

// payload returns the PayloadID of the message key interned as kid, or
// NoPayload when kid is no message key of this interner.
func (it *Interner) payload(kid KeyID) PayloadID {
	if int(kid) >= len(it.payloads) {
		return NoPayload
	}
	return it.payloads[kid]
}

// Key returns the canonical key string behind a KeyID issued by this
// interner. The empty string is returned for NoKey or out-of-range IDs.
func (it *Interner) Key(id KeyID) string {
	if int(id) >= len(it.keys) {
		return ""
	}
	return it.keys[id]
}

// Snapshot copies the interned keys in KeyID order (index i holds the key
// of KeyID i+1). Determinism tests compare snapshots across engines and
// worker counts.
func (it *Interner) Snapshot() []string {
	return append([]string(nil), it.keys[1:]...)
}

// InternMessageKey interns the canonical (identifier, payload) key
// "id=<id>|<bodyKey>" built in the interner's scratch buffer, and returns
// both the KeyID and the canonical string (shared with the intern table,
// so repeated sends of the same message allocate nothing).
func (it *Interner) InternMessageKey(id int64, bodyKey string) (KeyID, string) {
	kid := internMessageKey(it, id, bodyKey)
	return kid, it.keys[kid]
}

// internMessageKey is InternMessageKey over a body key held as a string
// or as scratch bytes; the body key itself is never interned as a key.
// The message key also names its payload, once: the part after
// "id=<id>|" of the interned string, so the payload table allocates no
// string.
func internMessageKey[K string | []byte](it *Interner, id int64, bodyKey K) KeyID {
	b := append(it.scratch[:0], "id="...)
	b = strconv.AppendInt(b, id, 10)
	b = append(b, '|')
	at := len(b)
	b = append(b, bodyKey...)
	it.scratch = b[:0]
	kid := it.InternBytes(b)
	if it.payloads[kid] == NoPayload {
		payload := it.keys[kid][at:]
		pid, ok := it.pids[payload]
		if !ok {
			pid = PayloadID(len(it.pids) + 1)
			it.pids[payload] = pid
		}
		it.payloads[kid] = pid
	}
	return kid
}
