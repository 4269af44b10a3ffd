package mdhf

// Helpers for the root tests and benchmarks that drive one backend below
// the Warehouse façade. They go to the internal packages directly: the
// façade has no entry point that hands out a bare engine or executor.

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/kernel"
	"repro/internal/storage"
)

// newSched starts a scheduler of the given size (values below 1 mean
// GOMAXPROCS) that is closed with the test.
func newSched(t testing.TB, workers int) *exec.Scheduler {
	t.Helper()
	s := exec.NewScheduler(workers)
	t.Cleanup(s.Close)
	return s
}

// workerExecutor pairs a store with its bitmap file on its own scheduler
// of the given size.
func workerExecutor(t testing.TB, s *storage.Store, bf *storage.BitmapFile, workers int) *storage.Executor {
	t.Helper()
	ex, err := storage.NewExecutor(s, bf, newSched(t, workers))
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// executorTotal runs q's grand total on the on-disk executor, no deltas.
func executorTotal(ex *storage.Executor, q Query) (Aggregate, StorageIOStats, error) {
	q.GroupBy = nil // grouping never changes the grand total
	res, st, err := ex.ExecuteGroupedDeltas(context.Background(), q, kernel.Deltas{})
	return res.Aggregate, st, err
}

// engineTotal runs q's grand total on the in-memory engine through
// sched, no deltas.
func engineTotal(eng *engine.Engine, sched *exec.Scheduler, q Query) (Aggregate, EngineStats, error) {
	q.GroupBy = nil
	res, st, err := eng.ExecuteGroupedDeltas(context.Background(), sched, q, kernel.Deltas{})
	return res.Aggregate, st, err
}
