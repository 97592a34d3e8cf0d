package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestProtectConvertsPanic: a panicking fn becomes a typed PanicError
// carrying the item index, the panic value and a captured stack; the
// error text is deterministic (index and value only — no stack, no
// goroutine ids), so it can enter campaign digests.
func TestProtectConvertsPanic(t *testing.T) {
	_, err := Protect(7, func() (int, error) {
		panic("boom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 7 || fmt.Sprint(pe.Value) != "boom" {
		t.Fatalf("PanicError = index %d value %v, want 7 boom", pe.Index, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	if want := "panic at item 7: boom"; pe.Error() != want {
		t.Fatalf("Error() = %q, want %q", pe.Error(), want)
	}
	if strings.Contains(pe.Error(), "goroutine") {
		t.Fatal("Error() leaks the stack trace")
	}
}

// TestProtectPassesThrough: a non-panicking fn's result and error are
// returned unchanged.
func TestProtectPassesThrough(t *testing.T) {
	got, err := Protect(0, func() (string, error) { return "ok", nil })
	if err != nil || got != "ok" {
		t.Fatalf("Protect = %q, %v", got, err)
	}
	sentinel := errors.New("plain")
	_, err = Protect(0, func() (string, error) { return "", sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the fn's own error", err)
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Fatal("plain error wrapped into a PanicError")
	}
}

// TestMapNPanicIsolation is the acceptance criterion for panic-isolated
// campaigns: one panicking item returns a typed PanicError for exactly
// that index while every other item's result is byte-identical to a
// panic-free run — at workers 1 and 4.
func TestMapNPanicIsolation(t *testing.T) {
	const n, bad = 20, 7
	clean := func(workers int) []string {
		out, err := MapN(n, workers, func(i int) (string, error) {
			return fmt.Sprintf("item-%d-result", i), nil
		})
		if err != nil {
			t.Fatalf("clean run (workers %d): %v", workers, err)
		}
		return out
	}
	for _, workers := range []int{1, 4} {
		want := clean(workers)
		got, errs := MapNWeightedCollect(n, workers, nil, func(i int) (string, error) {
			if i == bad {
				panic(fmt.Sprintf("injected panic at %d", i))
			}
			return fmt.Sprintf("item-%d-result", i), nil
		})
		for i := 0; i < n; i++ {
			if i == bad {
				var pe *PanicError
				if !errors.As(errs[i], &pe) {
					t.Fatalf("workers %d: item %d err = %v, want *PanicError", workers, i, errs[i])
				}
				if pe.Index != bad {
					t.Fatalf("workers %d: PanicError.Index = %d, want %d", workers, pe.Index, bad)
				}
				continue
			}
			if errs[i] != nil {
				t.Fatalf("workers %d: item %d unexpectedly errored: %v", workers, i, errs[i])
			}
			if got[i] != want[i] {
				t.Fatalf("workers %d: item %d = %q, want %q (panic at %d leaked)", workers, i, got[i], want[i], bad)
			}
		}

		// MapN's firstError view of the same shape: the panic surfaces as
		// the returned error, partial results intact.
		res, err := MapN(n, workers, func(i int) (string, error) {
			if i == bad {
				panic("injected")
			}
			return fmt.Sprintf("item-%d-result", i), nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != bad {
			t.Fatalf("workers %d: MapN err = %v, want PanicError at %d", workers, err, bad)
		}
		for i := 0; i < n; i++ {
			if i == bad {
				continue
			}
			if res[i] != want[i] {
				t.Fatalf("workers %d: MapN item %d = %q, want %q", workers, i, res[i], want[i])
			}
		}
	}
}
