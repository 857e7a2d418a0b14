// Package par is the repository's one ordered worker pool. The oracle
// sweep, the experiment runners and blockcheck each run a list of
// independent, deterministic jobs and report their results in job order,
// so the output is byte-identical for any worker count: jobs are
// dispatched by increasing index to a fixed set of workers, and their
// results are handed back on the calling goroutine strictly in index
// order.
package par

import (
	"runtime"
	"sync"
)

// Workers resolves a requested worker count for n jobs: w <= 0 means one
// worker per runtime.GOMAXPROCS(0), and there are never more workers than
// jobs (no workers for no jobs).
func Workers(w, n int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, n)
}

// Ordered runs jobs 0..n-1 on Workers(workers, n) workers and passes each
// result to merge on the calling goroutine, in index order. newWorker(w)
// builds worker w's job function, which runs every job that worker
// takes; it is called on the calling goroutine, once per worker, so
// per-worker state is never shared between goroutines. When merge returns
// true no further job is dispatched and no later index is merged; jobs
// that have already started run to completion and their results are
// discarded. Ordered returns once every started job has finished. With
// one worker, jobs run inline on the calling goroutine.
func Ordered[R any](workers, n int, newWorker func(w int) func(i int) R, merge func(i int, r R) (stop bool)) {
	workers = Workers(workers, n)
	if workers == 0 {
		return
	}
	if workers == 1 {
		job := newWorker(0)
		for i := 0; i < n; i++ {
			if merge(i, job(i)) {
				return
			}
		}
		return
	}

	// Workers claim indices under mu; the calling goroutine waits on ready
	// for the next index in order. Dispatch stops at limit, which a stop
	// lowers to 0.
	var (
		mu      sync.Mutex
		ready   = sync.NewCond(&mu)
		results = make([]R, n)
		done    = make([]bool, n)
		next    int
		limit   = n
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		job := newWorker(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= limit {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				r := job(i)
				mu.Lock()
				results[i], done[i] = r, true
				ready.Broadcast()
				mu.Unlock()
			}
		}()
	}
	defer wg.Wait()
	for i := 0; i < n; i++ {
		mu.Lock()
		for !done[i] {
			ready.Wait()
		}
		r := results[i]
		mu.Unlock()
		if merge(i, r) {
			mu.Lock()
			limit = 0
			mu.Unlock()
			return
		}
	}
}

// Map runs f(0..n-1) on Workers(workers, n) workers and returns the
// results in index order. On error it returns the error of the lowest
// failing index, the one a serial loop would stop at, and dispatches no
// job after that index is merged.
func Map[R any](workers, n int, f func(i int) (R, error)) ([]R, error) {
	type result struct {
		r   R
		err error
	}
	out := make([]R, n)
	var err error
	Ordered(workers, n, func(int) func(int) result {
		return func(i int) result {
			r, err := f(i)
			return result{r, err}
		}
	}, func(i int, res result) bool {
		out[i], err = res.r, res.err
		return err != nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
