package mdhf

// BenchmarkDiskScaling is the executable form of the paper's
// speedup-vs-disks experiments: the same 1STORE query (every fragment
// relevant, bitmap I/O on each — the widest fan-out) against the
// reduced-scale APB-1 store declustered over 1/2/4/8/16 virtual disks,
// each disk a serialized I/O queue with a simulated per-access delay
// (the disk-model regime). Worker count is fixed at 16, at least the
// widest disk count, so the disks are the bottleneck; response time then
// scales near-linearly with the disk count. Results are asserted
// byte-identical to the single-disk execution before timing.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/storage"
)

func BenchmarkDiskScaling(b *testing.B) {
	store, bf, q := parallelBenchStore(b)

	// Single-disk baseline result, page-cache regime.
	base := workerExecutor(b, store, bf, 1)
	wantAgg, wantSt, err := executorTotal(base, q)
	if err != nil {
		b.Fatal(err)
	}

	const delay = 200 * time.Microsecond
	for _, disks := range []int{1, 2, 4, 8, 16} {
		for _, scheme := range []AllocScheme{RoundRobin, GapRoundRobin} {
			placement := Placement{Disks: disks, Scheme: scheme, Staggered: true}
			ds, err := storage.Decluster(store, bf, placement)
			if err != nil {
				b.Fatal(err)
			}
			ex := workerExecutor(b, store, bf, 16)

			// Byte-identical to the single-disk path before timing.
			gotAgg, gotSt, err := executorTotal(ex, q)
			if err != nil {
				b.Fatal(err)
			}
			if gotAgg != wantAgg || gotSt != wantSt {
				b.Fatalf("disks=%d %v diverged: %+v/%+v != %+v/%+v", disks, scheme, gotAgg, gotSt, wantAgg, wantSt)
			}

			ds.SetIODelay(delay)
			b.Run(fmt.Sprintf("%v/disks=%d", scheme, disks), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := executorTotal(ex, q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(wantSt.FactIOs+wantSt.BitmapIOs), "disk-accesses")
			})
			ds.SetIODelay(0)
		}
	}
}
