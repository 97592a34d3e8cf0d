package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"homonyms/internal/exec"
)

// TestRunReportsPanickingDemo injects a panicking demonstration between
// a passing and a failing one: run must return the panic, named after
// its demo, and still print every demo's section in order, the failing
// one with the narration it wrote before its error.
func TestRunReportsPanickingDemo(t *testing.T) {
	demos := []demo{
		{"figure4", 1, func(w io.Writer) error { fmt.Fprintln(w, "fine"); return nil }},
		{"figure1", 3, func(io.Writer) error { panic("boom") }},
		{"clones", 2, func(w io.Writer) error { fmt.Fprintln(w, "partial"); return errors.New("diverged") }},
	}
	for _, workers := range []string{"1", "3"} {
		var out bytes.Buffer
		err := run([]string{"-workers", workers}, &out, demos)
		var pe *exec.PanicError
		if !errors.As(err, &pe) || pe.Index != 1 || err.Error() != "figure1: panic at item 1: boom" {
			t.Fatalf("workers %s: run = %v, want the figure1 panic", workers, err)
		}
		want := "\n=== figure4 ===\nfine\n" +
			"\n=== figure1 ===\n!! figure1 failed: panic at item 1: boom\n" +
			"\n=== clones ===\npartial\n!! clones failed: diverged\n"
		if out.String() != want {
			t.Fatalf("workers %s: output\n%s\nwant\n%s", workers, out.String(), want)
		}
	}
}
