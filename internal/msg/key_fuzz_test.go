package msg

import (
	"testing"

	"homonyms/internal/hom"
)

// FuzzKeyBuilder pins the key layout's injectivity: two distinct field
// tuples — strings with separators and escapes in them, integers,
// identifiers, values including NoValue — never build the same key.
func FuzzKeyBuilder(f *testing.F) {
	f.Add("a|b", "c", 1, 2, "a", "b|c", 1, 2)
	f.Add(`a\`, "|b", 0, -1, `a\|`, "b", 0, -1)
	f.Add("x", "", 3, 4, "x|", "", 3, 4)
	f.Add("", "", 0, 0, "", "", 0, 0)
	f.Fuzz(func(t *testing.T, s1, u1 string, i1, v1 int, s2, u2 string, i2, v2 int) {
		build := func(s, u string, i, v int) string {
			return NewKey("t").Str(s).Int(i).Str(u).Identifier(hom.Identifier(i)).Value(hom.Value(v)).String()
		}
		// hom.NoValue renders as "_", and so does every value equal to it.
		if k1, k2 := build(s1, u1, i1, v1), build(s2, u2, i2, v2); k1 == k2 && (s1 != s2 || u1 != u2 || i1 != i2 || v1 != v2) {
			t.Fatalf("distinct tuples (%q, %q, %d, %d) and (%q, %q, %d, %d) share key %q", s1, u1, i1, v1, s2, u2, i2, v2, k1)
		}
	})
}
