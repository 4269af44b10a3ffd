package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	mdhf "repro"
)

// execFn runs one query on the system under test.
type execFn func(ctx context.Context, q mdhf.Query) (mdhf.Result, mdhf.Stats, error)

// checkFn decides whether a returned result is correct; lo and hi are the
// ingest interval (both 0 on read-only workloads).
type checkFn func(p *op, got mdhf.Result, lo, hi int) bool

// sample is one completed operation.
type sample struct {
	start, end time.Duration // offsets from the phase start (open loop: start is the due time)
	ok         bool
}

// opCounts are the per-operation counters a traced run keeps from the
// Stats each Execute returns.
type opCounts struct {
	Rows, FactIOs, BitmapIOs, FactPages, BitmapPages int64
	DeltaRows, PoolHits, PoolMisses                  int64
	Batched, ReadsSaved, Nodes                       int64
}

func countsOf(st *mdhf.Stats) opCounts {
	c := opCounts{
		Rows:    st.Engine.RowsScanned + st.IO.RowsRead,
		FactIOs: st.IO.FactIOs, BitmapIOs: st.IO.BitmapIOs,
		FactPages: st.IO.FactPages, BitmapPages: st.IO.BitmapPages,
		DeltaRows: st.DeltaRows, PoolHits: st.IO.PoolHits, PoolMisses: st.IO.PoolMisses,
		Batched: int64(st.SharedScan.Batched), ReadsSaved: st.SharedScan.PhysReadsSaved,
	}
	if st.Cluster != nil {
		c.Nodes = int64(st.Cluster.NodesUsed)
	}
	return c
}

// phase is the outcome of one measured (or warm-up) phase.
type phase struct {
	samples []sample
	counts  []opCounts    // parallel to samples; traced runs only
	t0      time.Time     // the instant sample offsets count from
	window  time.Duration // the span throughput is taken over
	lateMax time.Duration // open loop: worst generator lateness
}

// ingestClock lets readers bracket a query with the writer's progress.
type ingestClock struct {
	begun, acked atomic.Int64
}

// closedLoop runs `streams` clients that each issue the next op of the
// shared sequence as soon as their previous one returned. Clients stop
// taking new ops after `count` ops when count > 0 (warm-up), else once
// `dur` has passed. Every op taken is run to completion and checked.
func closedLoop(ctx context.Context, streams int, ops []op, first int, dur time.Duration, count int,
	exec execFn, check checkFn, clock *ingestClock, traced bool) phase {
	var next atomic.Int64
	per := make([][]sample, streams)
	cnt := make([][]opCounts, streams)
	t0 := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if count > 0 && i >= count {
					return
				}
				begin := time.Since(t0)
				if count == 0 && begin >= dur {
					return
				}
				p := &ops[(first+i)%len(ops)]
				var lo, hi int
				if clock != nil {
					lo = int(clock.acked.Load())
				}
				got, st, err := exec(ctx, p.q)
				end := time.Since(t0)
				if clock != nil {
					hi = int(clock.begun.Load())
				}
				per[s] = append(per[s], sample{start: begin, end: end, ok: err == nil && check(p, got, lo, hi)})
				if traced {
					cnt[s] = append(cnt[s], countsOf(&st))
				}
			}
		}(s)
	}
	wg.Wait()
	ph := phase{t0: t0, window: dur}
	if count > 0 {
		ph.window = time.Since(t0)
	}
	for s := range per {
		ph.samples = append(ph.samples, per[s]...)
		ph.counts = append(ph.counts, cnt[s]...)
	}
	return ph
}

// openLoop fires bursts of `size` ops every `every`, whether or not the
// earlier ones finished — independent users. Latency is timed from the
// instant each burst was due, so a stall is charged to every query it
// delays; how late the generator itself ran is reported.
func openLoop(ctx context.Context, ops []op, first, bursts, size int, every time.Duration,
	exec execFn, check checkFn, traced bool) phase {
	samples := make([]sample, bursts*size)
	var counts []opCounts
	if traced {
		counts = make([]opCounts, bursts*size)
	}
	var wg sync.WaitGroup
	var late time.Duration
	t0 := time.Now()
	for b := 0; b < bursts; b++ {
		due := time.Duration(b) * every
		if d := due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		if l := time.Since(t0) - due; l > late {
			late = l
		}
		for k := 0; k < size; k++ {
			i := b*size + k
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := &ops[(first+i)%len(ops)]
				got, st, err := exec(ctx, p.q)
				samples[i] = sample{start: due, end: time.Since(t0), ok: err == nil && check(p, got, 0, 0)}
				if traced {
					counts[i] = countsOf(&st)
				}
			}()
		}
	}
	wg.Wait()
	// Throughput is taken over the busy period, first due instant to last
	// completion: an open loop that keeps up completes what was offered.
	return phase{samples: samples, counts: counts, t0: t0, window: time.Since(t0), lateMax: late}
}

// loadStats are the end-to-end figures of one phase.
type loadStats struct {
	attempted, failed int
	qps               float64 // correct ops per second of the window (in-flight ops at its end count pro rata)
	p50ms, p95ms      float64 // nearest-rank percentiles over every correct op of the phase
	cov               float64 // coefficient of variation of throughput over five equal slices
}

func summarize(ph phase) loadStats {
	st := loadStats{attempted: len(ph.samples)}
	lat := make([]float64, 0, len(ph.samples))
	var done float64
	var slices [5]float64
	for _, s := range ph.samples {
		if !s.ok {
			st.failed++
			continue
		}
		lat = append(lat, float64(s.end-s.start)/float64(time.Millisecond))
		switch {
		case s.end <= ph.window:
			done++
			k := int(int64(s.end) * 5 / int64(ph.window))
			if k > 4 {
				k = 4
			}
			slices[k]++
		case s.start < ph.window:
			// Still running when the window closed: credit the share of
			// its service time that fell inside, so throughput does not
			// jump by a whole (possibly 0.7 s) query from run to run.
			done += float64(ph.window-s.start) / float64(s.end-s.start)
		}
	}
	if ph.window > 0 {
		st.qps = done / ph.window.Seconds()
	}
	st.p50ms = percentile(lat, 50)
	st.p95ms = percentile(lat, 95)
	st.cov = coefVar(slices[:])
	return st
}

// percentile is the nearest-rank percentile: the smallest value with at
// least p percent of the sample at or below it. It sorts xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// coefVar is the population standard deviation over the mean.
func coefVar(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}
