package mdhf

// BenchmarkCachedServing measures the caching stack on the workload it
// was built for: a skewed serving mix where most queries confine to the
// current quarter (the paper's hot fragments). It compares an uncached
// disk-latency baseline against the same warehouse with the buffer pool
// and the result cache, asserts the warm cached configuration clears 3x
// the baseline throughput with byte-identical results, asserts appends
// mid-benchmark invalidate only the entries whose fragments they touch,
// and sweeps the hot fraction against a pool sized below the total
// working set. Each sub-benchmark reports its figures as metrics.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

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

	var baseline []Result
	var uncachedQPS float64

	b.Run("uncached", func(b *testing.B) {
		w := open()
		for i := 0; i < b.N; i++ {
			uncachedQPS, baseline = pass(w, seqn, nil)
		}
		b.ReportMetric(uncachedQPS, "q/s")
	})

	b.Run("cached", func(b *testing.B) {
		w := open(WithBufferPool(poolBytes), WithResultCache(cacheCap))
		var coldQPS, warmQPS, resultHitRate, poolHit float64
		for i := 0; i < b.N; i++ {
			coldQPS, _ = pass(w, seqn, baseline)
			pre := w.ServingStats()
			warmQPS, _ = pass(w, seqn, baseline)
			post := w.ServingStats()
			if lookups := post.Cache.Hits + post.Cache.Misses - pre.Cache.Hits - pre.Cache.Misses; lookups > 0 {
				resultHitRate = float64(post.Cache.Hits-pre.Cache.Hits) / float64(lookups)
			}
			poolHit = poolHitRate(post.Cache.Pool)
		}
		b.ReportMetric(warmQPS, "q/s")
		b.ReportMetric(coldQPS, "cold-q/s")
		b.ReportMetric(resultHitRate, "result-hit-rate")
		b.ReportMetric(poolHit, "pool-hit-rate")
		if speedup := warmQPS / uncachedQPS; speedup < 3 {
			b.Fatalf("warm cached serving %.0f q/s is only %.1fx the uncached %.0f q/s, want >= 3x",
				warmQPS, speedup, uncachedQPS)
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
		invalidated, rekeyed := post.Cache.Invalidations-pre.Cache.Invalidations, post.Cache.Rekeys-pre.Cache.Rekeys
		if invalidated == 0 || rekeyed == 0 {
			b.Fatalf("append invalidated %d and re-keyed %d entries — want both partial (fragment-granular)",
				invalidated, rekeyed)
		}
		for _, q := range wl.hot {
			if _, st, err := w.Query(q).Execute(ctx); err != nil {
				b.Fatal(err)
			} else if !st.CacheHit {
				b.Fatal("a hot-quarter entry was evicted by an append confined to a cold month")
			}
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
			for _, frac := range []float64{0.5, 0.8, 0.95} {
				w := open(WithBufferPool(sweepPool))
				qps, _ := pass(w, wl.sequence(seed+1, execs, frac), nil)
				b.ReportMetric(qps, fmt.Sprintf("q/s@hot=%g", frac))
				b.ReportMetric(poolHitRate(w.ServingStats().Cache.Pool), fmt.Sprintf("pool-hit-rate@hot=%g", frac))
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// poolHitRate returns Hits/(Hits+Misses), 0 when nothing was looked up.
func poolHitRate(st PoolStats) float64 {
	if n := st.Hits + st.Misses; n > 0 {
		return float64(st.Hits) / float64(n)
	}
	return 0
}
