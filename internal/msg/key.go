package msg

import (
	"strconv"

	"homonyms/internal/hom"
)

// KeyBuilder helps payload types produce canonical keys with a uniform
// tag|field1|field2 layout. It builds into a reusable byte buffer, so a
// long-lived builder (protocol scratch) can rebuild keys every round
// without allocating, and Intern can symbolize a key without ever
// materialising the string when it is already known.
//
// Invariants: Reset restarts the builder and invalidates any slice
// previously returned by Bytes (String copies are unaffected); field
// values are escaped by Str so embedding one canonical key inside
// another can never collide two distinct payloads; a KeyBuilder is not
// safe for concurrent use — each process owns its own scratch builder.
type KeyBuilder struct {
	buf []byte
	// sub is the lazily-allocated sub-builder Nested rebuilds inner
	// payload keys into; chained nesting allocates one per depth, once
	// per KeyBuilder lifetime.
	sub *KeyBuilder
}

// NewKey starts a key with the payload's type tag, e.g. "propose".
func NewKey(tag string) *KeyBuilder {
	kb := &KeyBuilder{}
	return kb.Reset(tag)
}

// Reset restarts the builder on a new tag, keeping the backing buffer.
// Protocol hot paths hold one KeyBuilder as scratch and Reset it per key.
func (kb *KeyBuilder) Reset(tag string) *KeyBuilder {
	kb.buf = append(kb.buf[:0], tag...)
	return kb
}

// Int appends an integer field.
func (kb *KeyBuilder) Int(v int) *KeyBuilder {
	kb.buf = append(kb.buf, '|')
	kb.buf = strconv.AppendInt(kb.buf, int64(v), 10)
	return kb
}

// Value appends a hom.Value field (NoValue renders as "_").
func (kb *KeyBuilder) Value(v hom.Value) *KeyBuilder {
	kb.buf = append(kb.buf, '|')
	if v == hom.NoValue {
		kb.buf = append(kb.buf, '_')
	} else {
		kb.buf = strconv.AppendInt(kb.buf, int64(v), 10)
	}
	return kb
}

// Values appends a sorted value-set field, e.g. "{0,1}".
func (kb *KeyBuilder) Values(vs hom.ValueSet) *KeyBuilder {
	kb.buf = vs.AppendTo(append(kb.buf, '|'))
	return kb
}

// Identifier appends an identifier field.
func (kb *KeyBuilder) Identifier(id hom.Identifier) *KeyBuilder {
	kb.buf = append(kb.buf, '|')
	kb.buf = strconv.AppendInt(kb.buf, int64(id), 10)
	return kb
}

// Str appends a raw string field. Field separators and escapes inside s
// are escaped ('|' as `\|`, '\' as `\\`), so embedding one canonical key
// inside another (envelopes, echo tuples) cannot make two distinct
// payloads collide: the field boundary structure stays unambiguous.
func (kb *KeyBuilder) Str(s string) *KeyBuilder {
	kb.buf = append(kb.buf, '|')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '|', '\\':
			kb.buf = append(kb.buf, '\\', c)
		default:
			kb.buf = append(kb.buf, c)
		}
	}
	return kb
}

// Nested appends an inner payload's canonical key as an escaped field,
// byte-identical to Str(p.Key()) (guaranteed by the ScratchKeyer
// contract), without materialising the key as a string when the payload
// implements ScratchKeyer: the inner key is rebuilt into a reusable
// sub-builder and its bytes escaped directly. Envelope payloads
// (composed protocols, echo tuples) use it so their own BuildKey stays
// allocation-free even when the wrapped body is itself scratch-keyed —
// recursion chains one sub-builder per nesting depth, each allocated
// once per KeyBuilder lifetime. Payloads without BuildKey fall back to
// the Key() path unchanged.
func (kb *KeyBuilder) Nested(p Payload) *KeyBuilder {
	sk, ok := p.(ScratchKeyer)
	if !ok {
		return kb.Str(p.Key())
	}
	if kb.sub == nil {
		kb.sub = &KeyBuilder{}
	}
	sk.BuildKey(kb.sub)
	kb.buf = append(kb.buf, '|')
	for _, c := range kb.sub.buf {
		switch c {
		case '|', '\\':
			kb.buf = append(kb.buf, '\\', c)
		default:
			kb.buf = append(kb.buf, c)
		}
	}
	return kb
}

// String finalises the key as a fresh string.
func (kb *KeyBuilder) String() string { return string(kb.buf) }

// Bytes exposes the key bytes built so far. The slice aliases the
// builder's scratch: it is valid only until the next Reset.
func (kb *KeyBuilder) Bytes() []byte { return kb.buf }

// Intern symbolizes the built key in it without allocating when the key
// is already known; a first sight interns a fresh copy. This is the
// string-free path protocol tables use every round.
func (kb *KeyBuilder) Intern(it *Interner) KeyID { return it.InternBytes(kb.buf) }

// InternMessage is Interner.InternMessageKey for the built payload key,
// straight from the scratch bytes.
func (kb *KeyBuilder) InternMessage(it *Interner, id hom.Identifier) KeyID {
	return internMessageKey(it, int64(id), kb.buf)
}

// ScratchKeyer is an optional Payload extension for the engines' send
// path: a payload that can rebuild its canonical key into a
// caller-provided KeyBuilder implements it, and the router then builds
// the key in round scratch and interns it directly — no per-send key
// string is ever allocated once the key has been seen.
//
// BuildKey must Reset the builder and produce exactly the bytes of
// Key(): the two are interchangeable by contract (pinned by the
// protocols' key tests). Payloads that cache their canonical key at
// construction (numbcast bundles, classical EIG states) gain nothing
// from implementing it and stay on the plain Key path.
type ScratchKeyer interface {
	Payload
	BuildKey(kb *KeyBuilder)
}

// ScratchKey materialises a ScratchKeyer's canonical key as a fresh
// string. Payload types implement Key as ScratchKey(p) so Key and
// BuildKey cannot diverge; hot paths never call it.
func ScratchKey(p ScratchKeyer) string {
	var kb KeyBuilder
	p.BuildKey(&kb)
	return kb.String()
}

// Raw is a generic opaque payload used by tests and Byzantine strategies
// that need to inject arbitrary bytes.
type Raw string

// Key implements Payload.
func (r Raw) Key() string { return "raw|" + string(r) }

var _ Payload = Raw("")
