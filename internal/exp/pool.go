package exp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// workers resolves the runner's effective worker count: Parallel when set,
// otherwise one worker per available CPU.
func (r *Runner) workers() int {
	if r.Parallel > 0 {
		return r.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// forEachIndex evaluates fn(0) … fn(n-1) on up to par workers. The serial
// path (par ≤ 1) stops at the first error, exactly like the pre-parallel
// harness; the parallel path lets in-flight work finish and then returns
// the error of the lowest failing index, so the reported error does not
// depend on goroutine scheduling. A canceled ctx stops workers from
// picking up new indices; in-flight cells abort through their own ctx
// polling, and the cancellation error is reported when no cell failed
// first.
func forEachIndex(ctx context.Context, par, n int, fn func(i int) error) error {
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// buildRows fills t with one row per app, dispatching the row computations
// to the runner's worker pool. Rows land in apps order regardless of which
// worker finishes first, so the emitted table is deterministic.
func buildRows(ctx context.Context, r *Runner, t *Table, apps []string, row func(app string) ([]float64, error)) error {
	rows := make([]Row, len(apps))
	err := forEachIndex(ctx, r.workers(), len(apps), func(i int) error {
		vals, err := row(apps[i])
		if err != nil {
			return err
		}
		rows[i] = Row{App: apps[i], Values: vals}
		return nil
	})
	if err != nil {
		return err
	}
	t.Rows = rows
	return nil
}
