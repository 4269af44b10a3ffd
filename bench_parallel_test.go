package mdhf

// Benchmarks for the fragment-parallel execution subsystem (internal/exec):
// the on-disk storage executor and the in-memory engine at 1/2/4/8 workers
// on the reduced-scale APB-1 store. The sequential/parallel results are
// asserted identical before timing, so the speed-up numbers measure the
// scatter/gather pool, not divergent work.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
)

// parallelBenchStore builds the reduced-scale APB-1 on-disk warehouse used
// by the worker-scaling benchmarks.
func parallelBenchStore(b *testing.B) (*storage.Store, *storage.BitmapFile, Query) {
	b.Helper()
	star := APB1Scaled(60)
	tab, err := GenerateData(star, 3)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := ParseFragmentation(star, "time::month, product::group")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	store, err := storage.Build(dir, tab, spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	bf, err := storage.BuildBitmaps(dir, store, APB1Indexes(star))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { bf.Close() })
	// 1STORE is unsupported by FMonthGroup: it touches every fragment with
	// bitmap I/O — the widest fan-out the pool can parallelise.
	q, err := NewQueryGenerator(star, 7).Next(OneStore)
	if err != nil {
		b.Fatal(err)
	}
	return store, bf, q
}

// BenchmarkExecutorParallel measures the on-disk executor's fragment
// parallelism: the same 1STORE query at 1, 2, 4 and 8 workers, in two
// regimes, on 8 declustered disks. "pagecache" reads straight from the
// OS page cache (CPU-bound: scales with physical cores). "diskmodel" adds
// the paper's Table 4 per-access disk latency via SetIODelay, exposing
// the intra-query I/O parallelism of Section 4.3 — workers overlap the
// waits of distinct disks, so it scales with the worker count even on a
// single CPU.
func BenchmarkExecutorParallel(b *testing.B) {
	store, bf, q := parallelBenchStore(b)
	ds, err := storage.Decluster(store, bf, Placement{Disks: 8, Scheme: RoundRobin, Staggered: true})
	if err != nil {
		b.Fatal(err)
	}
	seq := workerExecutor(b, store, bf, 1)
	wantAgg, wantSt, err := executorTotal(seq, q)
	if err != nil {
		b.Fatal(err)
	}
	regimes := []struct {
		name  string
		delay time.Duration
	}{
		{"pagecache", 0},
		// ~1 ms per access: a fast disk's seek+settle share at bench scale
		// (Table 4 models 10 ms seek + 2 ms settle at full scale).
		{"diskmodel", time.Millisecond},
	}
	for _, regime := range regimes {
		ds.SetIODelay(regime.delay)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", regime.name, workers), func(b *testing.B) {
				ex := workerExecutor(b, store, bf, workers)
				gotAgg, gotSt, err := executorTotal(ex, q)
				if err != nil {
					b.Fatal(err)
				}
				if gotAgg != wantAgg || gotSt != wantSt {
					b.Fatalf("workers=%d diverged: %+v/%+v != %+v/%+v", workers, gotAgg, gotSt, wantAgg, wantSt)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := executorTotal(ex, q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(wantSt.FactIOs+wantSt.BitmapIOs), "disk-accesses")
			})
		}
	}
}

// BenchmarkEngineParallel is the in-memory counterpart on the same shared
// pool: the generated fact table, fragment bitmap indices, 1STORE.
func BenchmarkEngineParallel(b *testing.B) {
	star := APB1Scaled(60)
	tab, err := GenerateData(star, 3)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := ParseFragmentation(star, "time::month, product::group")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.Build(tab, spec, APB1Indexes(star))
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewQueryGenerator(star, 7).Next(OneStore)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sched := newSched(b, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := engineTotal(eng, sched, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
