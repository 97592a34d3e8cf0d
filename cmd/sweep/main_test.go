package main

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"homonyms/internal/exec"
)

// TestRunReportsPanickingPoint injects a panicking point into a real
// series: run must return the panic, naming the point's index, and print
// every other row in order and no row for the failed point.
func TestRunReportsPanickingPoint(t *testing.T) {
	const bad = 2
	args := []string{"-series", "messages-vs-l", "-workers", "2"}
	var full bytes.Buffer
	if err := run(args, &full, allSeries); err != nil {
		t.Fatal(err)
	}
	broken := func(seed int64) []series {
		s := messagesVsL(seed)
		s.points[bad].measure = func() (string, error) { panic("boom") }
		return []series{s}
	}
	var out bytes.Buffer
	err := run(args, &out, broken)
	var pe *exec.PanicError
	if !errors.As(err, &pe) || pe.Index != bad || pe.Value != "boom" {
		t.Fatalf("run = %v, want the panic at item %d", err, bad)
	}
	lines := strings.SplitAfter(full.String(), "\n")
	want := strings.Join(slices.Delete(lines, 2+bad, 3+bad), "") // after title and header
	if out.String() != want {
		t.Fatalf("output\n%s\nwant\n%s", out.String(), want)
	}
}
