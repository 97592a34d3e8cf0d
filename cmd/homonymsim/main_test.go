package main

import (
	"slices"
	"strings"
	"testing"
)

// TestParseInputs pins -inputs: one binary digit per slot, the
// alternating default when empty, and an error naming the first
// character outside {0, 1} by its position in characters, not bytes.
func TestParseInputs(t *testing.T) {
	for _, tc := range []struct {
		in      string
		n       int
		want    []int
		wantErr string
	}{
		{"", 4, []int{0, 1, 0, 1}, ""},
		{"0110", 4, []int{0, 1, 1, 0}, ""},
		{"0x1z", 4, nil, `position 1 is 'x'`},
		{"01é1", 4, nil, `position 2 is 'é'`},
		{"1é", 3, nil, `position 1 is 'é'`},
		{"0 1", 3, nil, `position 1 is ' '`},
		{"2", 1, nil, `position 0 is '2'`},
		{"010", 4, nil, "length n = 4"},
		{"01010", 4, nil, "length n = 4"},
	} {
		got, err := parseInputs(tc.in, tc.n)
		switch {
		case tc.wantErr == "" && (err != nil || !slices.Equal(got, tc.want)):
			t.Errorf("parseInputs(%q, %d) = %v, %v; want %v", tc.in, tc.n, got, err, tc.want)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("parseInputs(%q, %d) = %v, %v; want an error containing %q", tc.in, tc.n, got, err, tc.wantErr)
		}
	}
}
