// Package exec is the shared fragment-parallel scatter/gather subsystem.
// It has one worker pool, Scheduler — a fixed set of goroutines standing
// in for the paper's Shared Disk processing nodes — and one dispatcher:
// every execution publishes its independent tasks (typically one per MDHF
// fragment) as one job in the scheduler's job list; the workers pull —
// pick a job round-robin, claim its next task with a compare-and-swap —
// and the one that finishes a job's last task wakes the caller and yields
// to it: a task costs one claim, no allocation, goroutine switch or slot
// of its own. A call of one task runs on its caller instead, in a caller
// slot, with no job published and no worker woken.
//
// ReduceShardedOn is the dispatcher's one entry point, the paper's
// "aggregate locally, merge globally" (Section 4.3): a worker folds the
// tasks it runs into a partial of its own, with the scratch of its slot
// in the store's Scratch, and the caller merges one partial per worker —
// identical results at any pool size for merges that commute. A call's
// partials, claim order, job and plan (Call) are recycled with the
// Scratch, so a warm call allocates nothing to dispatch. The query
// drivers (internal/kernel) run both backends' fragment tasks through it
// on the serving process's one scheduler, placement-aware when the
// backend is declustered. MapOn is a reduce with a result slot per task,
// returned in task order, for results that do not commute; its scratch
// lives and dies with the call. The two offline fan-outs, the cost
// advisor and the experiment harness, use Map: MapOn on a scheduler owned
// by the call. The cluster coordinator's scatter runs on no pool.
package exec

import (
	"context"
	"runtime"
)

// Workers resolves a worker-count option: any value below 1 means "one
// worker per available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(i) for every i in [0, n) on a scheduler of `workers`
// goroutines (values below 1 mean GOMAXPROCS, never more than n) that
// the call starts and closes itself, and returns the results in index
// order: MapOn's guarantees for callers with no long-lived pool to
// share. No goroutine outlives the call on any return path. fn must be
// safe for concurrent invocation.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	s := NewScheduler(min(Workers(workers), n))
	defer s.Close()
	return MapOn(ctx, s, n,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) { return fn(i) },
	)
}
