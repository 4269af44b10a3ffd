package main

import (
	"os"
	"path/filepath"
	"time"
)

// counters flattens the cumulative public statistics of a system under
// test (ServingStats, DiskStats, PoolStats, NodeStats, ClientStats) so
// two snapshots around a phase subtract field by field.
type counters struct {
	admitted, tasks, peak, shed                     int64
	batches, batched, soloWindows, fallbacks        int64
	poolHits, poolMisses, evictions, rejected       int64
	retries, checksumFailures                       int64
	compactions, compactedRows                      int64
	clientRetries, clientHedges, clientBreakerTrips int64
	diskIOs                                         []int64
}

func snapshot(e *env, s *system) (counters, error) {
	var c counters
	if s.cl != nil {
		st, err := s.cl.ServingStats(e.ctx)
		if err != nil {
			return c, err
		}
		for _, n := range st.Nodes {
			c.admitted += n.Sched.QueriesAdmitted
			c.tasks += n.Sched.TasksRun
			c.shed += n.Sched.Shed
			if n.Sched.PeakInFlight > c.peak {
				c.peak = n.Sched.PeakInFlight
			}
			c.compactions += n.Compactions
			c.compactedRows += n.CompactedRows
		}
		for _, cs := range st.Client {
			c.clientRetries += cs.Retries
			c.clientHedges += cs.Hedges
			c.clientBreakerTrips += cs.BreakerTrips
		}
		return c, nil
	}
	st := s.wh.ServingStats()
	c.admitted, c.tasks, c.peak, c.shed = st.QueriesAdmitted, st.TasksRun, st.PeakInFlight, st.Shed
	c.batches, c.batched = st.Shared.Batches, st.Shared.BatchedQueries
	c.soloWindows, c.fallbacks = st.Shared.SoloWindows, st.Shared.Fallbacks
	pool := st.Cache.Pool
	c.poolHits, c.poolMisses, c.evictions, c.rejected = pool.Hits, pool.Misses, pool.Evictions, pool.Rejected
	c.retries, c.checksumFailures = st.Faults.Retries, st.Faults.ChecksumFailures
	c.compactions, c.compactedRows = st.Compactions, st.CompactedRows
	for _, d := range s.wh.DiskStats() {
		c.diskIOs = append(c.diskIOs, d.IOs)
	}
	return c, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts derives the per-layer count metrics of one traced phase
// from the counter deltas and the per-operation counters.
func layerCounts(p *prepared, before, after counters, m measured) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, spec := range perLayer {
		out[spec.Name] = 0 // a metric that does not apply to the workload reads 0
	}
	var sum opCounts
	for _, c := range m.counts {
		sum.Rows += c.Rows
		sum.FactIOs += c.FactIOs
		sum.BitmapIOs += c.BitmapIOs
		sum.FactPages += c.FactPages
		sum.BitmapPages += c.BitmapPages
		sum.DeltaRows += c.DeltaRows
		sum.ReadsSaved += c.ReadsSaved
		sum.Nodes += c.Nodes
	}
	n := float64(len(m.samples))
	out["kernel.rows_per_query"] = ratio(float64(sum.Rows), n)
	out["storage.fact_ios_per_query"] = ratio(float64(sum.FactIOs), n)
	out["storage.bitmap_ios_per_query"] = ratio(float64(sum.BitmapIOs), n)
	out["storage.fact_pages_per_query"] = ratio(float64(sum.FactPages), n)
	out["storage.bitmap_pages_per_query"] = ratio(float64(sum.BitmapPages), n)
	out["storage.shared_reads_saved_ratio"] = ratio(float64(sum.ReadsSaved), float64(sum.FactIOs+sum.BitmapIOs))
	out["ingest.delta_rows_per_query"] = ratio(float64(sum.DeltaRows), n)
	out["cluster.nodes_per_query"] = ratio(float64(sum.Nodes), n)

	out["exec.tasks_per_query"] = ratio(float64(after.tasks-before.tasks), float64(after.admitted-before.admitted))
	out["exec.peak_inflight"] = float64(after.peak)
	out["exec.shed"] = float64(after.shed - before.shed)
	windows := float64(after.batches-before.batches) + float64(after.soloWindows-before.soloWindows)
	out["exec.batch_mean_size"] = ratio(float64(after.batched-before.batched)+float64(after.soloWindows-before.soloWindows), windows)
	out["exec.batch_solo_windows"] = float64(after.soloWindows - before.soloWindows)
	out["exec.batch_fallbacks"] = float64(after.fallbacks - before.fallbacks)
	out["storage.retries"] = float64(after.retries - before.retries)
	out["storage.checksum_failures"] = float64(after.checksumFailures - before.checksumFailures)
	out["bufpool.hit_rate"] = ratio(float64(after.poolHits-before.poolHits),
		float64(after.poolHits-before.poolHits+after.poolMisses-before.poolMisses))
	out["bufpool.evictions"] = float64(after.evictions - before.evictions)
	out["bufpool.rejected"] = float64(after.rejected - before.rejected)
	out["compact.runs"] = float64(after.compactions - before.compactions)
	out["compact.rows_folded"] = float64(after.compactedRows - before.compactedRows)
	out["cluster.retries"] = float64(after.clientRetries - before.clientRetries)
	out["cluster.hedges"] = float64(after.clientHedges - before.clientHedges)
	out["cluster.breaker_trips"] = float64(after.clientBreakerTrips - before.clientBreakerTrips)

	// Physical disk accesses. Two workloads have no usable per-disk
	// counters: a compaction installs a fresh disk set whose counters
	// restart at zero (ingest_mixed), and the cluster facade exposes none.
	// There the logical read count stands in — no pool, so every logical
	// read is physical — and the per-disk figures read 0.
	if p.w.ingest || p.sys.cl != nil {
		out["disk.ios_per_query"] = ratio(float64(sum.FactIOs+sum.BitmapIOs), n)
	} else if disks := float64(len(after.diskIOs)); disks > 0 {
		var total, most float64
		for d, io := range after.diskIOs {
			delta := float64(io - before.diskIOs[d])
			total += delta
			most = max(most, delta)
		}
		out["disk.ios_per_query"] = ratio(total, n)
		out["disk.imbalance"] = ratio(most, total/disks)
		out["disk.bottleneck_util"] = ratio(most*ioDelay.Seconds(), m.window.Seconds())
	}

	if len(m.appends) > 0 {
		var journal float64
		for _, a := range m.appends {
			journal += float64(a.journalB)
		}
		out["ingest.append_rows_per_s"], out["ingest.append_p95_ms"], out["ingest.append_stall_ms_max"] = appendStats(m)
		out["journal.bytes_per_row"] = ratio(journal, float64(len(m.appends))*batchRows)
		out["journal.segments_per_batch"] = segmentsPerBatch(p)
	}
	return out
}

// segmentsPerBatch is the mean number of fragments one append batch
// touches — the delta segments (and journal records) one Append writes.
func segmentsPerBatch(p *prepared) float64 {
	var segs int
	buf := make([]int, len(p.e.star.Dims))
	for _, b := range p.batches[:p.written] {
		seen := map[int64]bool{}
		for _, r := range b {
			for d, l := range r.Leaves {
				buf[d] = int(l)
			}
			seen[p.e.spec.ID(p.e.spec.CoordOf(buf))] = true
		}
		segs += len(seen)
	}
	return ratio(float64(segs), float64(p.written))
}

func journalSize(dir string) int64 {
	fi, err := os.Stat(filepath.Join(dir, "delta.dat"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// runTraced is the traced run. It measures the workload twice for 0.3 x
// seconds each — first untraced, then with per-operation counters kept
// for the span recorder; the throughput difference is the recorder's
// overhead — and spends the rest on the layer probes. Every per-layer
// metric is reported; one that does not apply to the workload reads 0.
func runTraced(e *env, w *workload, seconds float64, traceOut string) (runResult, error) {
	p, err := prepare(e, w, seconds)
	if err != nil {
		return runResult{}, err
	}
	rec := newRecorder(w.name)
	dur := time.Duration(0.3 * seconds * float64(time.Second))
	plain := p.measure(dur, false)
	before, err := snapshot(e, p.sys)
	if err != nil {
		p.sys.close()
		return runResult{}, err
	}
	traced := p.measure(dur, true)
	after, err := snapshot(e, p.sys)
	if err != nil {
		p.sys.close()
		return runResult{}, err
	}
	rec.addPhase(w.name, traced)
	metrics := layerCounts(p, before, after, traced)
	res, err := p.finish(plain, traced)
	if err != nil {
		return runResult{}, err
	}
	ps, ts := summarize(plain.phase), summarize(traced.phase)
	metrics["driver.qps_cov"] = ps.cov
	metrics["driver.trace_overhead_pct"] = 100 * ratio(ps.qps-ts.qps, ps.qps)
	metrics["driver.gen_late_ms_max"] = float64(plain.lateMax) / float64(time.Millisecond)

	if err := runProbes(e, rec, w, p.ops, metrics); err != nil {
		return runResult{}, err
	}
	if err := rec.write(traceOut); err != nil {
		return runResult{}, err
	}
	res.Metrics = metrics
	return res, nil
}
