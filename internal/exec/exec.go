// Package exec is the shared fragment-parallel scatter/gather subsystem.
// It has one worker pool, Scheduler — a fixed set of goroutines standing
// in for the paper's Shared Disk processing nodes — and one dispatcher:
// every execution publishes its independent tasks (typically one per MDHF
// fragment) as one job in the scheduler's job list; the workers pull —
// pick a job round-robin, claim its next task with an atomic add — and
// the one that finishes a job's last task wakes the caller and yields to
// it: a task costs one atomic claim, no allocation, goroutine switch or
// slot of its own. A call of one task runs on its caller instead, in a
// caller slot, with no job published and no worker woken.
//
// Two entry points sit on the dispatcher and differ in the gather.
// ReduceShardedOn is the paper's "aggregate locally, merge globally"
// (Section 4.3): a worker folds the tasks it runs into a partial of its
// own, with the scratch of its slot in the store's Scratch, and
// the caller merges one partial per worker — identical results at any
// pool size for merges that commute. The query drivers (internal/kernel)
// run both backends' fragment tasks through it on the serving store's
// long-lived scheduler, placement-aware when the backend is declustered.
// MapOn keeps a result slot per task and returns them in task order, for
// results that do not commute; its scratch lives and dies with the call.
// The control-plane fan-outs — the cost advisor, the experiment harness,
// the cluster coordinator's scatter — use Map/Reduce: MapOn on a
// scheduler owned by the call.
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

// Reduce is Map followed by a fold of the per-task partials into a
// single accumulator strictly in task order, so non-commutative merges
// still give identical results at any worker count; a failed gather
// yields the zero accumulator.
func Reduce[T, A any](ctx context.Context, workers, n int, fn func(i int) (T, error), merge func(acc *A, part T)) (A, error) {
	var acc A
	parts, err := Map(ctx, workers, n, fn)
	if err != nil {
		return acc, err
	}
	for _, p := range parts {
		merge(&acc, p)
	}
	return acc, nil
}
