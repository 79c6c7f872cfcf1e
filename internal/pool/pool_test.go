package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestOutcomesLandByIndex: every job runs exactly once and its outcome
// lands at its own index, whatever the worker count.
func TestOutcomesLandByIndex(t *testing.T) {
	const n = 7
	for _, workers := range []int{1, 3, n, 2 * n} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			out := make([]int, n)
			var calls atomic.Int64
			err := Run(context.Background(), n, workers, nil, func(_ struct{}, i int) error {
				calls.Add(1)
				out[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got != n {
				t.Errorf("job called %d times, want %d", got, n)
			}
			for i, v := range out {
				if v != i*i {
					t.Errorf("out[%d] = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

// TestStateOncePerGoroutine: state is called once per goroutine, at most
// min(workers, n) goroutines start, and every job sees the state of the
// goroutine that runs it.
func TestStateOncePerGoroutine(t *testing.T) {
	type worker struct {
		id   int
		jobs atomic.Int64
	}
	for _, tc := range []struct{ n, workers int }{{5, 1}, {5, 3}, {5, 5}, {5, 10}, {2, 8}, {1, 0}} {
		t.Run(fmt.Sprintf("n=%d/workers=%d", tc.n, tc.workers), func(t *testing.T) {
			var started atomic.Int64
			states := make([]*worker, max(tc.workers, 1))
			err := Run(context.Background(), tc.n, tc.workers, func(w int) *worker {
				started.Add(1)
				s := &worker{id: w}
				states[w] = s
				return s
			}, func(s *worker, i int) error {
				s.jobs.Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			limit := min(max(tc.workers, 1), tc.n)
			if got := started.Load(); got < 1 || got > int64(limit) {
				t.Fatalf("%d goroutines started, want 1..%d", got, limit)
			}
			var total int64
			for w, s := range states {
				if s == nil {
					continue
				}
				if w >= limit {
					t.Errorf("worker number %d out of range [0,%d)", w, limit)
				}
				total += s.jobs.Load()
			}
			if total != int64(tc.n) {
				t.Errorf("workers ran %d jobs in total, want %d", total, tc.n)
			}
		})
	}
}

// TestEmpty: n == 0 starts nothing and succeeds.
func TestEmpty(t *testing.T) {
	err := Run(context.Background(), 0, 4, func(int) int {
		t.Error("state called for an empty pool")
		return 0
	}, func(int, int) error {
		t.Error("job called for an empty pool")
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
}

// TestLowestIndexErrorWins: with several failing jobs, Run reports the
// lowest-index failure at every worker count, and a failure does not
// stop the other jobs.
func TestLowestIndexErrorWins(t *testing.T) {
	const n = 9
	for _, workers := range []int{1, 3, n} {
		var ran atomic.Int64
		err := Run(context.Background(), n, workers, nil, func(_ struct{}, i int) error {
			ran.Add(1)
			if i == 2 || i == 5 || i == 8 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 2 failed" {
			t.Errorf("workers=%d: err = %v, want job 2 failed", workers, err)
		}
		if got := ran.Load(); got != n {
			t.Errorf("workers=%d: %d jobs ran, want all %d", workers, got, n)
		}
	}
}

// TestCancelFromJob: a cancel issued inside a job skips every job the
// pool has not started yet, and Run returns ctx.Err() even though the
// jobs that ran reported success.
func TestCancelFromJob(t *testing.T) {
	const n, at = 10, 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make([]bool, n)
	err := Run(ctx, n, 1, nil, func(_ struct{}, i int) error {
		ran[i] = true
		if i == at {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range ran {
		if r != (i <= at) {
			t.Errorf("job %d ran = %v, want %v", i, r, i <= at)
		}
	}

	// At several workers the jobs in flight may finish, but no job starts
	// after every worker has seen the cancel.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	err = Run(ctx, 100, 4, nil, func(_ struct{}, i int) error {
		started.Add(1)
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("workers=4: err = %v, want context.Canceled", err)
	}
	if got := started.Load(); got > 4 {
		t.Errorf("workers=4: %d jobs started after the cancel, want at most 4", got)
	}
}
