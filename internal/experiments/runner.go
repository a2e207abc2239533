package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel experiment runner. Every figure decomposes into independent
// cells — one (experiment, model, config) measurement, each booting its
// own SoC with a private engine and Stats — so cells can run
// concurrently without sharing any mutable state. Determinism is
// preserved structurally: a cell's cycle counts depend only on its own
// inputs, and results land in an index-addressed slice, so the rendered
// tables are byte-identical at any worker count (the contract
// TestParallelDeterminism pins).

// workers is the pool width for runCells; snpu-bench's -j flag sets it.
var workers atomic.Int64

// cellsRun counts every cell executed since process start, for the
// bench snapshot's cells/sec metric.
var cellsRun atomic.Int64

// SetWorkers bounds the concurrent cells per experiment. n < 1 resets
// to the default (GOMAXPROCS).
func SetWorkers(n int) {
	if n < 1 {
		n = 0
	}
	workers.Store(int64(n))
}

// Workers reports the current pool width.
func Workers() int {
	if n := int(workers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// CellsRun reports the total experiment cells executed by this process.
func CellsRun() int64 { return cellsRun.Load() }

// runCells evaluates fn(0..n-1) on a bounded worker pool and returns
// the results in index order. Workers steal the next unstarted index
// from a shared counter, so an expensive cell never blocks cheap ones
// behind it. All cells run to completion even after a failure; the
// returned error is the lowest-indexed one, matching what a sequential
// loop that finishes every iteration would report.
func runCells[R any](n int, fn func(i int) (R, error)) ([]R, error) {
	results := make([]R, n)
	if n == 0 {
		return results, nil
	}
	cellsRun.Add(int64(n))
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		// Sequential fast path: no goroutines, same code path the
		// differential test compares the parallel pool against.
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, errs[i]
		}
	}
	return results, nil
}

// MapIndexed exposes the bounded worker pool to sibling packages whose
// sweeps decompose into independent index-addressed cells (one private
// SoC per cell, results in index order). The root package's serve,
// resilience and decode sweeps fan their points through it so -j
// applies there too, under the same any-width determinism contract.
func MapIndexed[R any](n int, fn func(i int) (R, error)) ([]R, error) {
	return runCells[R](n, fn)
}

// mapCells is runCells over a typed input slice.
func mapCells[T, R any](items []T, fn func(item T) (R, error)) ([]R, error) {
	return runCells[R](len(items), func(i int) (R, error) {
		return fn(items[i])
	})
}
