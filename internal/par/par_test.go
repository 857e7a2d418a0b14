package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOrderedMergesInIndexOrder: results are merged in index order and
// each lands at its own index even when jobs finish out of order. With two
// or more workers, job 0 waits until job 1 has finished, so the merge
// always sees a later job complete first.
func TestOrderedMergesInIndexOrder(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			oneDone := make(chan struct{})
			var finished []int // completion order
			var mu sync.Mutex
			var merged []int
			Ordered(workers, n, func(int) func(int) int {
				return func(i int) int {
					if i == 0 && workers > 1 {
						<-oneDone
					}
					mu.Lock()
					finished = append(finished, i)
					mu.Unlock()
					if i == 1 {
						close(oneDone)
					}
					return i * i
				}
			}, func(i, r int) bool {
				if r != i*i {
					t.Fatalf("index %d merged result %d", i, r)
				}
				merged = append(merged, i)
				return false
			})
			if len(merged) != n {
				t.Fatalf("merged %d results, want %d", len(merged), n)
			}
			for i, m := range merged {
				if m != i {
					t.Fatalf("merge %d was index %d", i, m)
				}
			}
			if workers > 1 && finished[0] == 0 {
				t.Fatalf("job 0 finished first; the out-of-order case was not exercised")
			}
		})
	}
}

// TestOrderedPerWorkerState: each worker's job function is built once
// and only ever called from one goroutine at a time.
func TestOrderedPerWorkerState(t *testing.T) {
	const n, workers = 200, 4
	var built atomic.Int32
	Ordered(workers, n, func(w int) func(int) int {
		built.Add(1)
		var inUse atomic.Bool
		return func(i int) int {
			if !inUse.CompareAndSwap(false, true) {
				t.Errorf("worker %d's job function entered concurrently", w)
			}
			defer inUse.Store(false)
			return i
		}
	}, func(int, int) bool { return false })
	if got := built.Load(); got != workers {
		t.Fatalf("built %d worker job functions, want %d", got, workers)
	}
}

// TestOrderedStop: after merge stops dispatch, no later index is merged,
// and Ordered returns only after every started job has finished.
func TestOrderedStop(t *testing.T) {
	const n, stopAt = 1000, 9
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			var started, finished atomic.Int32
			var merged []int
			Ordered(workers, n, func(int) func(int) int {
				return func(i int) int {
					started.Add(1)
					runtime.Gosched()
					finished.Add(1)
					return i
				}
			}, func(i, _ int) bool {
				merged = append(merged, i)
				return i == stopAt
			})
			if len(merged) != stopAt+1 || merged[len(merged)-1] != stopAt {
				t.Fatalf("merged %v, want indices 0..%d", merged, stopAt)
			}
			if s, f := started.Load(), finished.Load(); s != f {
				t.Fatalf("Ordered returned with %d of %d started jobs unfinished", s-f, s)
			}
			if workers == 1 && started.Load() != stopAt+1 {
				t.Fatalf("serial run started %d jobs, want %d", started.Load(), stopAt+1)
			}
		})
	}
}

// TestMapLowestErrorWins: Map returns results in index order, and on
// error the lowest failing index's error, even when a later index fails
// first; the serial path stops at that index.
func TestMapLowestErrorWins(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			res, err := Map(workers, n, func(i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				if r != i*i {
					t.Fatalf("result %d landed at index %d", r, i)
				}
			}

			errLow, errHigh := errors.New("index 3"), errors.New("index 7")
			sevenDone := make(chan struct{})
			var calls atomic.Int32
			_, err = Map(workers, n, func(i int) (int, error) {
				calls.Add(1)
				switch i {
				case 3:
					if workers > 1 {
						<-sevenDone
					}
					return 0, errLow
				case 7:
					close(sevenDone)
					return 0, errHigh
				}
				return i, nil
			})
			if err != errLow {
				t.Fatalf("Map returned %v, want the lowest-index error %v", err, errLow)
			}
			if workers == 1 && calls.Load() != 4 {
				t.Fatalf("serial Map ran %d jobs, want 4 (stop at the first error)", calls.Load())
			}
		})
	}
}

// TestWorkers: 0 and negative requests mean one worker per GOMAXPROCS,
// and there are never more workers than jobs. Workers is pure, so the
// large requests below start nothing.
func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ w, n, want int }{
		{0, 1 << 20, procs},
		{-2, 1 << 20, procs},
		{0, 1, 1},
		{3, 10, 3},
		{1 << 30, 5, 5},
		{8, 0, 0},
		{0, 0, 0},
		{-1, 0, 0},
	} {
		if got := Workers(c.w, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.w, c.n, got, c.want)
		}
	}
}
