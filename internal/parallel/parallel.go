// Package parallel provides the deterministic fan-out primitive used by
// the reproduction harness: a bounded worker pool that runs independent
// indexed jobs and hands their results back in submission-index order,
// so a parallel sweep is bit-identical to its serial counterpart.
//
// Determinism contract: as long as fn(i) depends only on i (every
// experiment cell seeds its own RNG and owns its own device state),
// Map's output is independent of the worker count — workers only decide
// how many fn calls are in flight, never which result lands where.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count flag: values <= 0 mean "one worker
// per available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(0) … fn(n-1) on at most workers goroutines (per Workers)
// and returns the results ordered by index.
//
// Error semantics mirror a serial loop's first failure: when a job
// fails, no new jobs are started, jobs already in flight run to
// completion (the pool drains cleanly — no goroutine is left behind
// when Map returns), and the returned error is the one from the lowest
// failing index. Indexes are claimed in ascending order, so every index
// below the lowest failure has fully executed, exactly as it would have
// serially. On error the result slice is nil.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	out := make([]T, n)
	if w == 1 {
		// Serial fast path: identical to the historical loops this
		// replaces, with no goroutine or atomic overhead.
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := fn(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
