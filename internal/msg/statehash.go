package msg

// A StateHash fingerprints a process's or an adversary's state: the
// counting engine merges classes on it and the explorer keys its search
// on it (engine.Result.Classes), so it must be identical across
// executions. Fold canonical keys (Payload.Key, Message.Key), never
// KeyIDs: an interner issues those in first-sight order, so one message
// has different KeyIDs after different prefixes.

// StateHash is an incremental, order-sensitive FNV-1a (64-bit) fold.
// The zero value is NOT a valid hash; start from NewStateHash.
type StateHash uint64

const (
	stateHashOffset StateHash = 14695981039346656037
	stateHashPrime  uint64    = 1099511628211
)

// NewStateHash returns the FNV-1a offset basis.
func NewStateHash() StateHash { return stateHashOffset }

// Byte folds one byte.
func (h StateHash) Byte(b byte) StateHash {
	return StateHash((uint64(h) ^ uint64(b)) * stateHashPrime)
}

// Uint64 folds a 64-bit value, little-endian.
func (h StateHash) Uint64(v uint64) StateHash {
	for i := 0; i < 8; i++ {
		h = h.Byte(byte(v >> (8 * i)))
	}
	return h
}

// Int folds an int.
func (h StateHash) Int(v int) StateHash { return h.Uint64(uint64(int64(v))) }

// Bool folds a bool as one byte.
func (h StateHash) Bool(v bool) StateHash {
	if v {
		return h.Byte(1)
	}
	return h.Byte(0)
}

// String folds a length-prefixed string, so consecutive folds never
// alias across string boundaries.
func (h StateHash) String(s string) StateHash {
	h = h.Int(len(s))
	for i := 0; i < len(s); i++ {
		h = h.Byte(s[i])
	}
	return h
}
