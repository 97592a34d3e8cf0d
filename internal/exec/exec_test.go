package exec

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i * 3
	}
	got, err := MapN(len(items), 8, func(i int) (int, error) {
		return items[i] + i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("got %d results, want %d", len(got), len(items))
	}
	for i, r := range got {
		if r != i*4 {
			t.Fatalf("result[%d] = %d, want %d", i, r, i*4)
		}
	}
}

func TestMapNLowestIndexError(t *testing.T) {
	err3 := errors.New("three")
	err7 := errors.New("seven")
	for _, workers := range []int{1, 4, 16} {
		for trial := 0; trial < 20; trial++ {
			_, err := MapN(32, workers, func(i int) (int, error) {
				switch i {
				case 7:
					return 0, err7
				case 3:
					return 0, err3
				}
				return i, nil
			})
			if !errors.Is(err, err3) {
				t.Fatalf("workers=%d: got error %v, want lowest-index error %v", workers, err, err3)
			}
		}
	}
}

func TestMapNRunsEveryItemDespiteErrors(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var ran atomic.Int64
		_, err := MapN(64, workers, func(i int) (int, error) {
			ran.Add(1)
			if i%2 == 0 {
				return 0, errors.New("even")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		if ran.Load() != 64 {
			t.Fatalf("workers=%d: ran %d items, want all 64 (no cancellation)", workers, ran.Load())
		}
	}
}

func TestMapNActuallyParallel(t *testing.T) {
	if Workers() < 2 {
		t.Skip("single-CPU environment")
	}
	var inFlight, peak atomic.Int64
	gate := make(chan struct{})
	var openGate sync.Once
	_, err := MapN(8, 4, func(i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		if cur == 4 {
			// All four workers active at once. The second wave of items
			// drives inFlight back to 4 after the gate has opened, so the
			// close must happen exactly once.
			openGate.Do(func() { close(gate) })
		}
		<-gate
		inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 4 {
		t.Fatalf("peak concurrency %d, want 4", peak.Load())
	}
}

func TestMapNWorkerCountEdgeCases(t *testing.T) {
	if got, err := MapN[int](0, 4, func(int) (int, error) { return 0, nil }); err != nil || got != nil {
		t.Fatalf("n=0: got (%v, %v), want (nil, nil)", got, err)
	}
	// workers <= 0 selects the default; workers > n is clamped.
	for _, workers := range []int{-1, 0, 1, 100} {
		got, err := MapN(3, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 || got[2] != 4 {
			t.Fatalf("workers=%d: got %v", workers, got)
		}
	}
}
