// Package exec is a deterministic worker-pool scheduler for the
// experiment drivers. The simulation kernel is strictly sequential and
// seed-deterministic; what parallelises is the layer above it — thousands
// of independent engine.Run/core.Run executions behind a solvability matrix,
// an attack suite or a parameter sweep. exec fans those across
// GOMAXPROCS-bounded workers while keeping results in input order, so a
// parallel run is byte-identical to a sequential one.
//
// Determinism contract: fn must be a pure function of its index/item (all
// drivers here draw their randomness from explicit seeds, so this holds
// by construction). Every item runs exactly once, even after another item has
// failed — cancellation would make the set of executed items timing
// dependent — and the error returned is always the lowest-index one.
//
// Panic isolation: a panic inside fn never tears down the pool (or the
// campaign driving it). Every invocation runs behind Protect, which
// recovers a panic into a typed *PanicError carrying the item index, the
// panic value and the stack; the item reports that error and every other
// item's result is byte-identical to a panic-free run.
package exec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// Workers returns the default worker count: one per available CPU.
func Workers() int { return runtime.GOMAXPROCS(0) }

// PanicError reports a panic recovered from one work item. Error() uses
// only the index and the panic value — both pure functions of the item —
// so error text folded into campaign digests stays identical across
// worker counts; the stack (which embeds goroutine-dependent addresses)
// is carried separately for logs.
type PanicError struct {
	// Index is the item whose invocation panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic at item %d: %v", e.Index, e.Value)
}

// Protect invokes fn, recovering a panic into a *PanicError for the
// given item index. It is the panic boundary every pool item runs
// behind; harnesses that execute user-supplied work outside a pool (the
// fuzzer's scenario runner) call it directly so all panics flow through
// one typed path.
func Protect[R any](index int, fn func() (R, error)) (result R, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: index, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// MapN runs fn(i) for every i in [0, n) on at most `workers` goroutines
// (0 or negative selects Workers()) and returns the results indexed by i.
// Panics in fn are recovered into *PanicError. If any invocation fails,
// the lowest-index error is returned alongside the results: an index
// whose fn panicked holds the zero value, an index whose fn returned an
// error holds what fn returned with it, and all other entries are
// exactly what a failure-free run would have produced.
func MapN[R any](n, workers int, fn func(i int) (R, error)) ([]R, error) {
	results, errs := MapNWeightedCollect(n, workers, nil, fn)
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// MapNWeightedCollect is MapN with cost-aware scheduling and per-item
// error reporting: results[i] is what fn(i) returned (the zero value
// after a recovered panic) and errs[i] its error, possibly a
// *PanicError, nil on success. Harnesses that must degrade gracefully —
// report failed cells, keep the surviving ones — consume this form.
//
// Instead of handing out indices in input order, workers steal them in
// descending cost(i) order (ties broken by ascending index), so the most
// expensive items start first and cannot land on an almost-drained pool:
// a solvability matrix whose large-n cells sit at the end of the input
// order would otherwise serialise them behind the cheap cells. cost is
// only a scheduling hint — results are byte-identical for any cost
// function, nil included (input order) — and is called once per index
// up front. It is the one pool loop; one worker walks it on the calling
// goroutine.
func MapNWeightedCollect[R any](n, workers int, cost func(i int) int64, fn func(i int) (R, error)) (results []R, errs []error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = Workers()
	}
	workers = min(workers, n)
	var order []int32 // position -> index; nil is the identity
	if workers > 1 && cost != nil {
		costs := make([]int64, n)
		order = make([]int32, n)
		for i := range n {
			costs[i] = cost(i)
			order[i] = int32(i)
		}
		sort.Slice(order, func(a, b int) bool {
			ca, cb := costs[order[a]], costs[order[b]]
			if ca != cb {
				return ca > cb
			}
			return order[a] < order[b] // total order: no stability needed
		})
	}
	results = make([]R, n)
	errs = make([]error, n)
	var next atomic.Int64
	walk := func() {
		for {
			pos := int(next.Add(1)) - 1
			if pos >= n {
				return
			}
			i := pos
			if order != nil {
				i = int(order[pos])
			}
			results[i], errs[i] = Protect(i, func() (R, error) { return fn(i) })
		}
	}
	if workers == 1 {
		walk()
		return results, errs
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			walk()
		}()
	}
	wg.Wait()
	return results, errs
}

// MapWeightedCollect applies fn to every item with cost-aware scheduling
// and per-item error reporting; see MapNWeightedCollect.
func MapWeightedCollect[T, R any](items []T, workers int, cost func(i int, item T) int64, fn func(i int, item T) (R, error)) ([]R, []error) {
	var costN func(int) int64
	if cost != nil {
		costN = func(i int) int64 { return cost(i, items[i]) }
	}
	return MapNWeightedCollect(len(items), workers, costN, func(i int) (R, error) {
		return fn(i, items[i])
	})
}
