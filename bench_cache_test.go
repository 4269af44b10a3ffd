package mdhf

// BenchmarkCachedServing measures the caching stack on the workload it
// was built for: a skewed serving mix where most queries confine to the
// current quarter (the paper's hot fragments). It compares an uncached
// disk-latency baseline against the same warehouse with the buffer pool
// and the result cache, asserts the warm cached configuration clears 3x
// the baseline throughput with byte-identical results, asserts appends
// mid-benchmark invalidate only the entries whose fragments they touch,
// and sweeps the hot fraction against a pool sized below the total
// working set. The measured numbers are written to BENCH_cache.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

// cacheBenchReport is the schema of BENCH_cache.json.
type cacheBenchReport struct {
	Benchmark       string  `json:"benchmark"`
	BaseRows        int     `json:"base_rows"`
	IODelayUs       int64   `json:"io_delay_us"`
	PoolBytes       int64   `json:"pool_bytes"`
	ResultCacheCap  int     `json:"result_cache_entries"`
	DistinctQueries int     `json:"distinct_queries"`
	ExecsPerPass    int     `json:"execs_per_pass"`
	HotFraction     float64 `json:"hot_fraction"`

	UncachedQPS   float64 `json:"uncached_qps"`
	CachedColdQPS float64 `json:"cached_cold_qps"`
	CachedWarmQPS float64 `json:"cached_warm_qps"`
	WarmSpeedup   float64 `json:"warm_speedup_vs_uncached"`

	PoolHitRateWarm   float64 `json:"pool_hit_rate_warm"`
	ResultHitRateWarm float64 `json:"result_cache_hit_rate_warm"`

	AppendInvalidations int64 `json:"append_invalidations"`
	AppendRekeys        int64 `json:"append_rekeys"`
	HotStillCached      bool  `json:"hot_still_cached_after_append"`

	SkewSweep []skewPoint `json:"skew_sweep_pool_only"`
}

// skewPoint is one hot-fraction measurement of the pool-only sweep.
type skewPoint struct {
	HotFraction float64 `json:"hot_fraction"`
	PoolHitRate float64 `json:"pool_hit_rate"`
	QPS         float64 `json:"qps"`
}

// cacheBenchWorkload derives the skewed query mix from the schema: hot
// queries confine to the last quarter (and its months), cold queries
// roam the remaining months and the unfragmented customer dimension.
type cacheBenchWorkload struct {
	hot, cold []Query
}

func newCacheBenchWorkload(b *testing.B, star *Star) cacheBenchWorkload {
	parse := func(text string) Query {
		q, err := ParseQuery(star, text)
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	var timeDim, custDim int
	for d := range star.Dims {
		switch star.Dims[d].Name {
		case "time":
			timeDim = d
		case "customer":
			custDim = d
		}
	}
	months := star.Dims[timeDim].LeafCard()
	quarters := star.Dims[timeDim].Levels[len(star.Dims[timeDim].Levels)-2].Card
	perQuarter := months / quarters
	hotQ := quarters - 1 // "current" quarter: the latest one

	var w cacheBenchWorkload
	w.hot = append(w.hot,
		parse(fmt.Sprintf("time::quarter=%d", hotQ)),
		parse(fmt.Sprintf("time::quarter=%d group by product::group", hotQ)))
	for m := hotQ * perQuarter; m < (hotQ+1)*perQuarter; m++ {
		w.hot = append(w.hot,
			parse(fmt.Sprintf("time::month=%d", m)),
			parse(fmt.Sprintf("time::month=%d group by product::group", m)))
	}
	for m := 0; m < hotQ*perQuarter; m++ {
		w.cold = append(w.cold, parse(fmt.Sprintf("time::month=%d", m)))
	}
	stores := star.Dims[custDim].LeafCard()
	for s := 0; s < 4 && s < stores; s++ {
		w.cold = append(w.cold, parse(fmt.Sprintf("customer::store=%d", s)))
	}
	return w
}

// sequence deals a deterministic skewed execution order: hotFrac of the
// picks come from the hot set.
func (w cacheBenchWorkload) sequence(seed int64, n int, hotFrac float64) []Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, n)
	for i := range out {
		if rng.Float64() < hotFrac {
			out[i] = w.hot[rng.Intn(len(w.hot))]
		} else {
			out[i] = w.cold[rng.Intn(len(w.cold))]
		}
	}
	return out
}

func BenchmarkCachedServing(b *testing.B) {
	ctx := context.Background()
	star := APB1Scaled(60)
	tab, err := GenerateData(star, 2)
	if err != nil {
		b.Fatal(err)
	}
	const (
		ioDelay   = 100 * time.Microsecond
		poolBytes = 64 << 20
		cacheCap  = 256
		execs     = 120
		hotFrac   = 0.8
		seed      = 23
	)
	wl := newCacheBenchWorkload(b, star)
	seqn := wl.sequence(seed, execs, hotFrac)
	baseOpts := []Option{WithWorkers(8), WithDisks(4, RoundRobin), WithIODelay(ioDelay)}
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: tab}

	open := func(extra ...Option) *Warehouse {
		w, err := Open(ctx, cfg, append(append([]Option{}, baseOpts...), extra...)...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		})
		if _, _, err := w.Query(seqn[0]).Execute(ctx); err != nil { // build outside timing
			b.Fatal(err)
		}
		return w
	}
	pass := func(w *Warehouse, seqn []Query, want []Result) (float64, []Result) {
		recording := want == nil
		start := time.Now()
		for i, q := range seqn {
			res, _, err := w.Query(q).Execute(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if recording {
				want = append(want, res)
			} else if !reflect.DeepEqual(res, want[i]) {
				b.Fatalf("execution %d diverged from the uncached baseline", i)
			}
		}
		return float64(len(seqn)) / time.Since(start).Seconds(), want
	}

	report := cacheBenchReport{
		Benchmark: "BenchmarkCachedServing", BaseRows: tab.N(),
		IODelayUs: ioDelay.Microseconds(), PoolBytes: poolBytes, ResultCacheCap: cacheCap,
		DistinctQueries: len(wl.hot) + len(wl.cold), ExecsPerPass: execs, HotFraction: hotFrac,
	}
	var baseline []Result

	b.Run("uncached", func(b *testing.B) {
		w := open()
		for i := 0; i < b.N; i++ {
			report.UncachedQPS, baseline = pass(w, seqn, nil)
		}
		b.ReportMetric(report.UncachedQPS, "q/s")
	})

	b.Run("cached", func(b *testing.B) {
		w := open(WithBufferPool(poolBytes), WithResultCache(cacheCap))
		for i := 0; i < b.N; i++ {
			report.CachedColdQPS, _ = pass(w, seqn, baseline)
			pre := w.ServingStats()
			report.CachedWarmQPS, _ = pass(w, seqn, baseline)
			post := w.ServingStats()
			if lookups := post.Cache.Hits + post.Cache.Misses - pre.Cache.Hits - pre.Cache.Misses; lookups > 0 {
				report.ResultHitRateWarm = float64(post.Cache.Hits-pre.Cache.Hits) / float64(lookups)
			}
			report.PoolHitRateWarm = poolHitRate(post.Cache.Pool)
		}
		b.ReportMetric(report.CachedWarmQPS, "q/s")
		report.WarmSpeedup = report.CachedWarmQPS / report.UncachedQPS
		if report.WarmSpeedup < 3 {
			b.Fatalf("warm cached serving %.0f q/s is only %.1fx the uncached %.0f q/s, want >= 3x",
				report.CachedWarmQPS, report.WarmSpeedup, report.UncachedQPS)
		}

		// Append one row into a cold month mid-serving: only entries whose
		// region contains the touched fragment may be invalidated — every
		// hot (current-quarter) entry must keep hitting without recompute.
		for _, q := range wl.hot { // ensure each hot query is cached
			if _, _, err := w.Query(q).Execute(ctx); err != nil {
				b.Fatal(err)
			}
		}
		row := FactRow{Leaves: make([]int32, len(star.Dims)), UnitsSold: 1, DollarSales: 1, Cost: 1}
		pre := w.ServingStats()
		if err := w.Append(ctx, []FactRow{row}); err != nil { // month 0: outside the hot quarter
			b.Fatal(err)
		}
		post := w.ServingStats()
		report.AppendInvalidations = post.Cache.Invalidations - pre.Cache.Invalidations
		report.AppendRekeys = post.Cache.Rekeys - pre.Cache.Rekeys
		if report.AppendInvalidations == 0 || report.AppendRekeys == 0 {
			b.Fatalf("append invalidated %d and re-keyed %d entries — want both partial (fragment-granular)",
				report.AppendInvalidations, report.AppendRekeys)
		}
		report.HotStillCached = true
		for _, q := range wl.hot {
			if _, st, err := w.Query(q).Execute(ctx); err != nil {
				b.Fatal(err)
			} else if !st.CacheHit {
				report.HotStillCached = false
			}
		}
		if !report.HotStillCached {
			b.Fatal("a hot-quarter entry was evicted by an append confined to a cold month")
		}
	})

	// Pool-only skew sweep: with the pool sized at a quarter of the fact
	// volume, the hit rate tracks how concentrated the workload is.
	b.Run("skew-sweep", func(b *testing.B) {
		sweepPool := int64(tab.N() / star.TuplesPerPage * star.PageSize / 4)
		if sweepPool < 1<<20 {
			sweepPool = 1 << 20
		}
		for i := 0; i < b.N; i++ {
			report.SkewSweep = report.SkewSweep[:0]
			for _, frac := range []float64{0.5, 0.8, 0.95} {
				w := open(WithBufferPool(sweepPool))
				qps, _ := pass(w, wl.sequence(seed+1, execs, frac), nil)
				st := w.ServingStats()
				report.SkewSweep = append(report.SkewSweep, skewPoint{
					HotFraction: frac, PoolHitRate: poolHitRate(st.Cache.Pool), QPS: qps,
				})
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_cache.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	fmt.Printf("BENCH_cache.json: uncached %.0f q/s, cached cold %.0f q/s, warm %.0f q/s (%.1fx); pool hit rate %.2f, result hit rate %.2f\n",
		report.UncachedQPS, report.CachedColdQPS, report.CachedWarmQPS, report.WarmSpeedup,
		report.PoolHitRateWarm, report.ResultHitRateWarm)
}

// poolHitRate returns Hits/(Hits+Misses), 0 when nothing was looked up.
func poolHitRate(st PoolStats) float64 {
	if n := st.Hits + st.Misses; n > 0 {
		return float64(st.Hits) / float64(n)
	}
	return 0
}
