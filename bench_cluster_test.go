package mdhf

// BenchmarkClusterServing measures multi-node scatter/gather scaling in
// the disk-latency regime: on-disk nodes with one simulated disk each
// (200µs per access), 16 concurrent query streams over the cache
// benchmark's skewed 80%-hot-quarter mix, at 1, 2, 4 and 8 in-process
// nodes. Throughput (q/s) and p95 latency per node count are written to
// BENCH_cluster.json; every result is cross-checked against the
// single-node warehouse oracle.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// clusterBenchPoint is one node-count measurement in BENCH_cluster.json.
type clusterBenchPoint struct {
	Nodes   int     `json:"nodes"`
	QPS     float64 `json:"qps"`
	P95Us   int64   `json:"p95_us"`
	Retries int64   `json:"retries"`
}

// clusterBenchReport is the schema of BENCH_cluster.json.
type clusterBenchReport struct {
	Benchmark   string              `json:"benchmark"`
	BaseRows    int                 `json:"base_rows"`
	IODelayUs   int64               `json:"io_delay_us"`
	Streams     int                 `json:"streams"`
	Execs       int                 `json:"execs"`
	HotFraction float64             `json:"hot_fraction"`
	Points      []clusterBenchPoint `json:"points"`
	Speedup8x   float64             `json:"speedup_8x_vs_1"`
}

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

	report := clusterBenchReport{
		Benchmark:   "BenchmarkClusterServing",
		BaseRows:    tab.N(),
		IODelayUs:   ioDelay.Microseconds(),
		Streams:     streams,
		Execs:       execs,
		HotFraction: hotFrac,
	}

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

			var best clusterBenchPoint
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
				point := clusterBenchPoint{
					Nodes: nodes,
					QPS:   float64(len(seqn)) / wall.Seconds(),
					P95Us: lat[len(lat)*95/100].Microseconds(),
				}
				if point.QPS > best.QPS {
					best = point
				}
			}
			b.StopTimer()
			st, err := c.NodeStats(ctx)
			if err != nil {
				b.Fatal(err)
			}
			for _, cs := range st.Client {
				best.Retries += cs.Retries
			}
			b.ReportMetric(best.QPS, "q/s")
			b.ReportMetric(float64(best.P95Us), "p95-µs")
			report.Points = append(report.Points, best)
		})
	}

	if len(report.Points) == 4 && report.Points[0].QPS > 0 {
		report.Speedup8x = report.Points[3].QPS / report.Points[0].QPS
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_cluster.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	fmt.Printf("BENCH_cluster.json: %d-row shardset, %dµs disks, %d streams; ", report.BaseRows, report.IODelayUs, report.Streams)
	for _, p := range report.Points {
		fmt.Printf("n=%d %.0f q/s p95 %dµs; ", p.Nodes, p.QPS, p.P95Us)
	}
	fmt.Printf("8-node speedup %.2fx\n", report.Speedup8x)
}
