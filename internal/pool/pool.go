// Package pool runs a set of independent, index-addressed jobs on a
// bounded set of goroutines. It is the one fan-out every v6lab engine
// uses: the Table 2 grid, capture extraction, and the homes of the fleet,
// timeline and adversary campaign. Jobs write their outcome at their own
// index, so callers merge in index order and the result never depends on
// scheduling or on the worker count.
package pool

import (
	"context"
	"sync"
)

// Run calls job(s, i) for every i in [0, n) on min(max(workers, 1), n)
// goroutines and returns once all of them have exited. Each goroutine
// calls state(w) once, with w its worker number, and hands the result to
// every job it runs, so per-worker infrastructure is reused across that
// goroutine's jobs; a nil state gives every worker S's zero value.
//
// ctx is checked before each job: once it is done, the remaining jobs are
// skipped. Run returns ctx.Err() if ctx is done when the pool drains, or
// else the error of the lowest-index job that failed, or nil. A job's
// error does not stop the others.
func Run[S any](ctx context.Context, n, workers int, state func(w int) S, job func(s S, i int) error) error {
	workers = min(max(workers, 1), n)
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s S
			if state != nil {
				s = state(w)
			}
			for i := range jobs {
				if ctx.Err() != nil {
					continue
				}
				errs[i] = job(s, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
