package mdhf

// BenchmarkClusterServing measures multi-node scatter/gather scaling in
// the disk-latency regime: on-disk nodes with one simulated disk each
// (200µs per access), 16 concurrent query streams over the cache
// benchmark's skewed 80%-hot-quarter mix, at 1, 2, 4 and 8 in-process
// nodes. Throughput (q/s), p95 latency and client retries per node count
// are reported as metrics; every result is cross-checked against the
// single-node warehouse oracle.

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

func BenchmarkClusterServing(b *testing.B) {
	ctx := context.Background()
	star := APB1Scaled(60)
	tab, err := GenerateData(star, 2)
	if err != nil {
		b.Fatal(err)
	}
	const (
		ioDelay = 200 * time.Microsecond
		streams = 16
		execs   = 192
		hotFrac = 0.8
		seed    = 31
	)
	wl := newCacheBenchWorkload(b, star)
	seqn := wl.sequence(seed, execs, hotFrac)

	// Oracle results from the in-memory single warehouse, computed once.
	oracle, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Table: tab})
	if err != nil {
		b.Fatal(err)
	}
	want := make([]Result, len(seqn))
	for i, q := range seqn {
		if want[i], _, err = oracle.Query(q).Execute(ctx); err != nil {
			b.Fatal(err)
		}
	}
	oracle.Close()

	for _, nodes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			c, err := Open(ctx,
				Config{Star: star, Fragmentation: "time::month, product::group", Table: tab},
				WithNodes(nodes, GapRoundRobin),
				WithOnDisk(b.TempDir()), WithIODelay(ioDelay), WithWorkers(8))
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			warm, err := c.QueryText("")
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := warm.Execute(ctx); err != nil { // build outside timing
				b.Fatal(err)
			}

			var bestQPS float64
			var bestP95 time.Duration
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				lat := make([]time.Duration, len(seqn))
				var wg sync.WaitGroup
				var firstErr error
				var mu sync.Mutex
				next := make(chan int)
				start := time.Now()
				for s := 0; s < streams; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := range next {
							t0 := time.Now()
							got, _, err := c.Query(seqn[i]).Execute(ctx)
							lat[i] = time.Since(t0)
							mu.Lock()
							if err != nil && firstErr == nil {
								firstErr = err
							}
							if err == nil && !reflect.DeepEqual(got, want[i]) {
								firstErr = fmt.Errorf("query %d diverged from the oracle", i)
							}
							mu.Unlock()
						}
					}()
				}
				for i := range seqn {
					next <- i
				}
				close(next)
				wg.Wait()
				wall := time.Since(start)
				if firstErr != nil {
					b.Fatal(firstErr)
				}
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				if qps := float64(len(seqn)) / wall.Seconds(); qps > bestQPS {
					bestQPS, bestP95 = qps, lat[len(lat)*95/100]
				}
			}
			b.StopTimer()
			st, err := c.NodeStats(ctx)
			if err != nil {
				b.Fatal(err)
			}
			var retries int64
			for _, cs := range st.Client {
				retries += cs.Retries
			}
			b.ReportMetric(bestQPS, "q/s")
			b.ReportMetric(float64(bestP95.Microseconds()), "p95-µs")
			b.ReportMetric(float64(retries), "retries")
		})
	}
}
