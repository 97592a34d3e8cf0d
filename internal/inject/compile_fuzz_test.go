package inject

import (
	"encoding/json"
	"testing"
)

// FuzzInjectCompile pins that Compile answers any schedule — decoded
// from arbitrary JSON, against any slot count — with an injector or an
// error (an empty schedule compiles to neither: the nil injector) and
// never panics.
func FuzzInjectCompile(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"crashes":[{"slot":0,"round":2,"recover":2},{"slot":3,"round":3}]}`,
		`{"omissions":[{"slot":1,"send":true,"from":2,"until":6,"prob":0.5,"seed":42},{"slot":2,"receive":true}]}`,
		`{"duplicates":[{"from_slot":0,"to_slot":3,"round":2}],"replays":[{"from_slot":3,"source_round":2,"round":4,"to_slot":0}]}`,
		`{"delays":[{"from_slot":0,"to_slot":3,"from":1,"until":3,"by":2},{"from_slot":1,"to_slot":0,"prob":0.4,"seed":7}],"reorders":[{"from_slot":3,"to_slot":0,"round":2}],"stalls":[{"slot":2,"round":2,"rounds":2}]}`,
		`{"crashes":[{"slot":-1,"round":0}],"replays":[{"from_slot":0,"source_round":3,"round":3,"to_slot":9}]}`,
	} {
		f.Add([]byte(s), 4)
	}
	f.Fuzz(func(t *testing.T, raw []byte, n int) {
		var s Schedule
		if json.Unmarshal(raw, &s) != nil {
			return
		}
		if in, err := Compile(&s, n); (in == nil) == (err == nil) && !s.Empty() {
			t.Fatalf("Compile(%s, %d) = %v, %v: want exactly one of an injector and an error", raw, n, in, err)
		}
	})
}
