package exec_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"homonyms/internal/exec"
)

// TestMapNWeightedMatchesMapN pins the scheduling-only contract of
// MapNWeightedCollect: for any
// cost function — including adversarially inverted and constant ones —
// the results are byte-identical to MapN's, in input order.
func TestMapNWeightedMatchesMapN(t *testing.T) {
	const n = 64
	fn := func(i int) (string, error) { return fmt.Sprintf("item-%d", i*i), nil }
	want, err := exec.MapN(n, 4, fn)
	if err != nil {
		t.Fatal(err)
	}
	costs := map[string]func(int) int64{
		"ascending":  func(i int) int64 { return int64(i) },
		"descending": func(i int) int64 { return int64(n - i) },
		"constant":   func(int) int64 { return 7 },
		"nil":        nil,
	}
	for name, cost := range costs {
		for _, workers := range []int{1, 3, 8} {
			got, errs := exec.MapNWeightedCollect(n, workers, cost, fn)
			for i := range want {
				if errs[i] != nil {
					t.Fatalf("%s/%d: item %d: %v", name, workers, i, errs[i])
				}
				if got[i] != want[i] {
					t.Fatalf("%s/%d: result[%d] = %q, want %q", name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMapNWeightedSchedulesExpensiveFirst pins the point of the
// scheduler: with one worker forced through the weighted path disabled
// (workers>1), the highest-cost index must be among the first dispatched.
func TestMapNWeightedSchedulesExpensiveFirst(t *testing.T) {
	const n = 32
	var mu sync.Mutex
	var order []int
	// Two workers; serialise the recording, not the scheduling.
	exec.MapNWeightedCollect(n, 2, func(i int) int64 { return int64(i) }, func(i int) (int, error) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return i, nil
	})
	if len(order) != n {
		t.Fatalf("ran %d items, want %d", len(order), n)
	}
	// The first two dispatches are the two most expensive indices (one
	// per worker), so whichever item is recorded first must be one of
	// them — with two workers nothing else can have started yet.
	if order[0] != n-1 && order[0] != n-2 {
		t.Fatalf("most expensive items not scheduled first: head %v", order[:4])
	}
}

// TestMapNWeightedErrorContract pins the per-item error semantics on the
// weighted path: every item runs exactly once even after failures, each
// error lands at its own index regardless of completion order, and a
// failed index keeps what fn returned alongside its error.
func TestMapNWeightedErrorContract(t *testing.T) {
	const n = 40
	errLow, errHigh := errors.New("low"), errors.New("high")
	var ran atomic.Int64
	got, errs := exec.MapNWeightedCollect(n, 4, func(i int) int64 { return int64(i) }, func(i int) (int, error) {
		ran.Add(1)
		switch i {
		case 3:
			return -i, errLow
		case 30:
			return -i, errHigh
		}
		return i, nil
	})
	wantErr := map[int]error{3: errLow, 30: errHigh}
	for i, err := range errs {
		if err != wantErr[i] {
			t.Fatalf("errs[%d] = %v, want %v", i, err, wantErr[i])
		}
		if err != nil && got[i] != -i {
			t.Fatalf("result[%d] = %d, want %d returned with its error", i, got[i], -i)
		}
	}
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d items, want %d (every item must run despite errors)", got, n)
	}
}

// TestMapWeightedPassesItems pins the slice wrapper MapWeightedCollect.
func TestMapWeightedPassesItems(t *testing.T) {
	items := []string{"a", "bb", "ccc", "dddd"}
	got, errs := exec.MapWeightedCollect(items, 2,
		func(_ int, s string) int64 { return int64(len(s)) },
		func(i int, s string) (string, error) { return fmt.Sprintf("%d:%s", i, s), nil })
	want := []string{"0:a", "1:bb", "2:ccc", "3:dddd"}
	for i := range want {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("result[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
