// Package exec is the shared fragment-parallel scatter/gather subsystem.
// It has one worker pool, Scheduler — a fixed set of goroutines standing
// in for the paper's Shared Disk processing nodes — and one dispatcher:
// every execution publishes its independent tasks (typically one per MDHF
// fragment) as one job in the scheduler's job list; the workers pull —
// pick a job round-robin, claim its next task with an atomic add — and
// the per-task partial results are gathered back in task order, so that
// parallel execution is bit-for-bit identical to sequential execution
// regardless of pool size or scheduling. A publish wakes idle workers;
// the worker that finishes a job's last task wakes the caller and yields
// its processor to it. No task costs an allocation or a goroutine switch.
//
// The query drivers (internal/kernel) run both backends' fragment tasks
// on the serving store's long-lived scheduler through ReduceShardedOn,
// placement-aware when the backend is declustered. The control-plane
// fan-outs — the cost advisor, the experiment harness, the cluster
// coordinator's scatter — use Map/Reduce, which run the same dispatcher
// on a scheduler owned by the call.
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

// Reduce is Map followed by ReduceShardedOn's deterministic gather: the
// per-task partials are folded into a single accumulator strictly in
// task order, so non-commutative merges still give identical results at
// any worker count.
func Reduce[T, A any](ctx context.Context, workers, n int, fn func(i int) (T, error), merge func(acc *A, part T)) (A, error) {
	parts, err := Map(ctx, workers, n, fn)
	return fold(parts, err, merge)
}

// fold merges the gathered partials in task order; a failed gather
// yields the zero accumulator.
func fold[T, A any](parts []T, err error, merge func(acc *A, part T)) (A, error) {
	var acc A
	if err != nil {
		return acc, err
	}
	for _, p := range parts {
		merge(&acc, p)
	}
	return acc, nil
}
