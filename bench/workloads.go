package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"time"

	mdhf "repro"
)

// system is one built system under test behind the two calls the load
// loops need.
type system struct {
	exec  execFn
	wh    *mdhf.Warehouse // nil on the cluster workload
	cl    *mdhf.Cluster   // nil on warehouse workloads
	dir   string          // the store's directory ("" in memory)
	close func() error
}

// workload is the shape of one named workload; the fields mirror the
// table in README.md.
type workload struct {
	name    string
	why     string // one line for BENCHMARK.json; the long form is in README.md
	mix     []mdhf.QueryType
	seqLen  int // distinct generated ops; the loops wrap around
	warmOps int // untimed warm-up prefix, part of setup_s
	open    func(e *env) (*system, error)
	// burst > 0 makes the workload open loop: bursts of `burst` queries
	// every burstEvery. ingest adds the closed-loop writer.
	burst      int
	burstEvery time.Duration
	ingest     bool
	inMemory   bool // served by the in-memory engine, not the on-disk executor
}

const (
	batchRows         = 512
	autoCompactRows   = 16384
	poolBytes         = 64 << 20
	sharedWindow      = time.Millisecond
	setupRepeats      = 3
	finalCheckCount   = 24
	allocCutPerSecond = 0.7 // ingest: alloc_kb_per_op stops at compaction number 0.7 x seconds (about one finishes per second)
	batchesPerSecond  = 60  // pre-generated append batches per measured second (2.5x the observed rate)
)

func diskOptions(dir string) []mdhf.Option {
	return []mdhf.Option{
		mdhf.WithOnDisk(dir), mdhf.WithCompression(),
		mdhf.WithDisks(diskCount, mdhf.RoundRobin), mdhf.WithIODelay(ioDelay), mdhf.WithWorkers(4),
	}
}

func openWarehouse(e *env, dir string, opts ...mdhf.Option) (*system, error) {
	w, err := mdhf.Open(e.ctx, e.cfg, opts...)
	if err != nil {
		return nil, err
	}
	return &system{
		wh: w, dir: dir, close: w.Close,
		exec: func(ctx context.Context, q mdhf.Query) (mdhf.Result, mdhf.Stats, error) {
			return w.Query(q).Execute(ctx)
		},
	}, nil
}

var workloads = []workload{
	{
		name: "disk_cold",
		why:  "declustered 4x200us disks, no caches, 2 closed-loop streams of mix.apb9: the paper's setting, storage read paths and disk queues do the work",
		mix:  mixAPB9, seqLen: 1800, warmOps: 9,
		open: func(e *env) (*system, error) {
			dir := e.newDir("disk_cold")
			return openWarehouse(e, dir, diskOptions(dir)...)
		},
	},
	{
		name: "cpu_hot",
		why:  "same store, zero disk delay, 64 MiB pool that fits the 11.8 MB working set: storage executor overhead, pool hits, WAH AND and kernel dominate",
		mix:  mixAPB9, seqLen: 4500, warmOps: 450,
		open: func(e *env) (*system, error) {
			dir := e.newDir("cpu_hot")
			return openWarehouse(e, dir,
				mdhf.WithOnDisk(dir), mdhf.WithCompression(), mdhf.WithDisks(diskCount, mdhf.RoundRobin),
				mdhf.WithIODelay(0), mdhf.WithBufferPool(poolBytes), mdhf.WithWorkers(e.procs))
		},
	},
	{
		name: "cpu_mem",
		why:  "in-memory compressed engine, 2 closed-loop streams of mix.apb9: no storage layer, so only engine, bitmap, kernel and scheduler wins show",
		mix:  mixAPB9, seqLen: 4500, warmOps: 900, inMemory: true,
		open: func(e *env) (*system, error) {
			return openWarehouse(e, "", mdhf.WithCompression(), mdhf.WithWorkers(e.procs))
		},
	},
	{
		name: "burst_shared",
		why:  "disk_cold store with 1 ms shared-scan windows, open-loop bursts of 16 mix.flash5 queries per second: the only workload that batches queries",
		mix:  mixFlash5, seqLen: 1600, warmOps: 16,
		burst: 16, burstEvery: time.Second,
		open: func(e *env) (*system, error) {
			dir := e.newDir("burst_shared")
			return openWarehouse(e, dir, append(diskOptions(dir), mdhf.WithSharedScans(sharedWindow))...)
		},
	},
	{
		name: "ingest_mixed",
		why:  "journaled store, 1 closed-loop writer of 512-row newest-month batches beside 2 readers of mix.confined4, auto-compaction: writes beside reads",
		mix:  mixConfined4, seqLen: 4500, warmOps: 16, ingest: true,
		open: func(e *env) (*system, error) {
			dir := e.newDir("ingest_mixed")
			return openWarehouse(e, dir, append(diskOptions(dir), mdhf.WithAutoCompaction(autoCompactRows))...)
		},
	},
	{
		name: "cluster_http",
		why:  "4 on-disk nodes behind loopback HTTP, 2 closed-loop streams of mix.apb9: the only workload that pays scatter, gob, HTTP and gather",
		mix:  mixAPB9, seqLen: 1800, warmOps: 9,
		open: openHTTPCluster,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	clusterNodes     = 4
	clusterNodeDisks = 2
	clusterNodeProcs = 2
)

// clusterNodeConfig is the one node shape both cluster_http and the
// cluster probes build.
func clusterNodeConfig(e *env, k int, dir string, delay time.Duration) mdhf.ClusterNodeConfig {
	return mdhf.ClusterNodeConfig{
		Spec: e.spec, Indexes: mdhf.APB1Indexes(e.star), Index: k,
		Cluster: mdhf.Placement{Disks: clusterNodes, Scheme: mdhf.RoundRobin},
		OnDisk:  true, Dir: dir, Compress: true,
		Disks: clusterNodeDisks, DiskScheme: mdhf.RoundRobin, Staggered: true,
		IODelay: delay, IODelaySet: true, Workers: clusterNodeProcs,
	}
}

// buildNodes builds the four node shards on disk.
func buildNodes(e *env, name string, delay time.Duration) ([]*mdhf.ClusterNode, error) {
	parts := mdhf.PartitionFactTable(e.spec, mdhf.Placement{Disks: clusterNodes, Scheme: mdhf.RoundRobin}, e.table)
	nodes := make([]*mdhf.ClusterNode, 0, clusterNodes)
	for k, part := range parts {
		n, err := mdhf.NewClusterNode(clusterNodeConfig(e, k, e.newDir(fmt.Sprintf("%s-node%d", name, k)), delay), part)
		if err != nil {
			closeNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

func closeNodes(nodes []*mdhf.ClusterNode) error {
	var err error
	for _, n := range nodes {
		err = errors.Join(err, n.Close())
	}
	return err
}

// serveNodes puts each node behind its own loopback HTTP server and
// returns the base URLs plus a function that stops the servers.
func serveNodes(nodes []*mdhf.ClusterNode) ([]string, func() error, error) {
	var servers []*http.Server
	stop := func() error {
		var err error
		for _, s := range servers {
			err = errors.Join(err, s.Close())
		}
		return err
	}
	addrs := make([]string, len(nodes))
	for k, n := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		srv := &http.Server{Handler: mdhf.NewNodeHandler(n)}
		servers = append(servers, srv)
		go srv.Serve(ln) // returns when stop closes the server
		addrs[k] = "http://" + ln.Addr().String()
	}
	return addrs, stop, nil
}

func openHTTPCluster(e *env) (*system, error) {
	nodes, err := buildNodes(e, "cluster_http", ioDelay)
	if err != nil {
		return nil, err
	}
	addrs, stop, err := serveNodes(nodes)
	if err != nil {
		closeNodes(nodes)
		return nil, err
	}
	c, err := mdhf.OpenCluster(e.ctx, e.cfg, mdhf.WithNodes(clusterNodes, mdhf.RoundRobin), mdhf.WithNodeAddrs(addrs...))
	if err != nil {
		stop()
		closeNodes(nodes)
		return nil, err
	}
	return &system{
		cl: c,
		exec: func(ctx context.Context, q mdhf.Query) (mdhf.Result, mdhf.Stats, error) {
			return c.Query(q).Execute(ctx)
		},
		close: func() error { return errors.Join(c.Close(), stop(), closeNodes(nodes)) },
	}, nil
}

// staticCheck compares with the one precomputed answer.
func staticCheck(p *op, got mdhf.Result, _, _ int) bool { return reflect.DeepEqual(got, *p.want) }

// prepared is a workload with its inputs generated and its system built
// and warmed, ready to measure.
type prepared struct {
	w       *workload
	e       *env
	ops     []op
	next    int // index of the next unused op
	sys     *system
	setupS  float64
	check   checkFn
	batches [][]mdhf.FactRow
	clock   *ingestClock
	written int // batches appended so far
}

// prepare generates the workload's inputs from the seed, computes the
// oracle, then builds and warms the system setupRepeats times, keeping
// the last build and the median time.
func prepare(e *env, w *workload, seconds float64) (*prepared, error) {
	ops, err := genQueries(e.star, e.seed, w.mix, w.seqLen)
	if err != nil {
		return nil, err
	}
	if err := fillOracle(e, ops); err != nil {
		return nil, err
	}
	p := &prepared{w: w, e: e, ops: ops, check: staticCheck}
	if w.ingest {
		n := int(seconds*batchesPerSecond) + 8
		p.batches = genBatches(e.star, e.seed, n, batchRows)
		oracle, err := newIngestOracle(e, ops, p.batches)
		if err != nil {
			return nil, err
		}
		p.check = oracle.matches
		p.clock = &ingestClock{}
	}
	var times []float64
	for r := 0; r < setupRepeats; r++ {
		if p.sys != nil {
			if err := p.sys.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if p.sys, err = w.open(e); err != nil {
			return nil, err
		}
		var ph phase
		if w.burst > 0 {
			ph = openLoop(e.ctx, ops, 0, 1, w.warmOps, w.burstEvery, p.sys.exec, staticCheck, false)
		} else {
			ph = closedLoop(e.ctx, clientStreams, ops, 0, 0, w.warmOps, p.sys.exec, staticCheck, nil, false)
		}
		times = append(times, time.Since(t0).Seconds())
		if st := summarize(ph); st.failed > 0 {
			p.sys.close()
			return nil, fmt.Errorf("%s: %d of %d warm-up queries failed or returned a wrong answer", w.name, st.failed, st.attempted)
		}
	}
	p.next = w.warmOps
	p.setupS = median(times)
	return p, nil
}

// appendSample is one Append call of the ingest writer.
type appendSample struct {
	start, end time.Duration
	ok         bool
	journalB   int64 // journal growth observed after the call (traced runs)
}

// measured is one measured phase: the read side, and the write side on
// the ingest workload.
type measured struct {
	phase
	appends []appendSample
	// Bytes allocated over allocOps operations: the queries of the phase.
	// On the ingest workload the operations are the appended batches, and
	// both counts stop when background compaction number
	// allocCutPerSecond x seconds finishes, about two thirds into the
	// phase. A compaction rewrites the whole, growing store and allocates
	// as much as 150 queries, so bytes per query over the whole window
	// moved by 5 % with how many compactions the host's speed let into it
	// and how many queries the readers got in beside them; cut at a fixed
	// compaction, the same rows have been appended and folded every run.
	allocBytes uint64
	allocOps   int
}

// appendsBy counts the Append calls that had returned at the given
// offset from the phase start.
func (m *measured) appendsBy(at time.Duration) int {
	n := 0
	for _, a := range m.appends {
		if a.end <= at {
			n++
		}
	}
	return n
}

// allocMark is the allocation counter read when the writer saw the
// compaction that ends the allocation count finish.
type allocMark struct {
	at    time.Duration
	total uint64
}

// measure runs the workload's load shape for dur.
func (p *prepared) measure(dur time.Duration, traced bool) measured {
	var m measured
	var before runtime.MemStats
	var mark allocMark
	runtime.GC()
	runtime.ReadMemStats(&before)
	switch {
	case p.w.burst > 0:
		bursts := int(dur / p.w.burstEvery)
		if bursts < 1 {
			bursts = 1
		}
		m.phase = openLoop(p.e.ctx, p.ops, p.next, bursts, p.w.burst, p.w.burstEvery, p.sys.exec, p.check, traced)
	case p.w.ingest:
		done := make(chan allocMark)
		go func() {
			appends, mark := p.write(dur, traced)
			m.appends = appends
			done <- mark
		}()
		m.phase = closedLoop(p.e.ctx, clientStreams, p.ops, p.next, dur, 0, p.sys.exec, p.check, p.clock, traced)
		mark = <-done
	default:
		m.phase = closedLoop(p.e.ctx, clientStreams, p.ops, p.next, dur, 0, p.sys.exec, p.check, nil, traced)
	}
	if mark.at == 0 { // no ingest, or too short a phase to reach the cut: count all of it
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		mark = allocMark{at: dur, total: after.TotalAlloc}
	}
	m.allocBytes, m.allocOps = mark.total-before.TotalAlloc, len(m.samples)
	if p.w.ingest {
		m.allocOps = m.appendsBy(mark.at)
	}
	p.next = (p.next + len(m.samples)) % len(p.ops)
	return m
}

// write is the closed-loop ingest writer: one batch after another until
// dur has passed (or the pre-generated batches run out). It also returns
// the allocation counter as of the compaction that ends the count (the
// last one seen, on a host too slow to reach it).
func (p *prepared) write(dur time.Duration, traced bool) ([]appendSample, allocMark) {
	var out []appendSample
	var mark allocMark
	t0 := time.Now()
	journal := journalSize(p.sys.dir)
	base := p.sys.wh.ServingStats().Compactions
	seen, last := base, base+int64(dur.Seconds()*allocCutPerSecond)
	for p.written < len(p.batches) {
		begin := time.Since(t0)
		if begin >= dur {
			break
		}
		p.clock.begun.Add(1)
		err := p.sys.wh.Append(p.e.ctx, p.batches[p.written])
		s := appendSample{start: begin, end: time.Since(t0), ok: err == nil}
		if err != nil {
			out = append(out, s)
			break // the store's state is unknown past a failed append
		}
		p.clock.acked.Add(1)
		p.written++
		if n := p.sys.wh.ServingStats().Compactions; n > seen && n <= last {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			seen, mark = n, allocMark{at: time.Since(t0), total: ms.TotalAlloc}
		}
		if traced {
			// Compaction truncates the journal, so only growth counts.
			sz := journalSize(p.sys.dir)
			if sz > journal {
				s.journalB = sz - journal
			}
			journal = sz
		}
		out = append(out, s)
	}
	return out, mark
}

// appendStats are the write side's figures: rows acknowledged per second
// of the window, the nearest-rank p95 of the Append calls and the longest
// one, in ms.
func appendStats(m measured) (rowsPerS, p95ms, stallMs float64) {
	var lat []float64
	var rows float64
	for _, a := range m.appends {
		ms := float64(a.end-a.start) / float64(time.Millisecond)
		lat = append(lat, ms)
		stallMs = max(stallMs, ms)
		if a.ok && a.end <= m.window {
			rows += batchRows
		}
	}
	return rows / m.window.Seconds(), percentile(lat, 95), stallMs
}

// finalCheck compacts, then compares finalCheckCount fixed queries with
// an in-memory oracle warehouse that received the same batches. It
// returns how many were compared and how many differed.
func (p *prepared) finalCheck() (attempted, failed int, err error) {
	ctx := p.e.ctx
	if err := p.sys.wh.Compact(ctx); err != nil {
		return 0, 0, err
	}
	oracle, err := mdhf.Open(ctx, p.e.cfg)
	if err != nil {
		return 0, 0, err
	}
	defer oracle.Close()
	for _, b := range p.batches[:p.written] {
		if err := oracle.Append(ctx, b); err != nil {
			return 0, 0, err
		}
	}
	seen := make(map[string]bool)
	for i := range p.ops {
		if attempted == finalCheckCount {
			break
		}
		if seen[p.ops[i].text] {
			continue
		}
		seen[p.ops[i].text] = true
		want, _, err := oracle.Query(p.ops[i].q).Execute(ctx)
		if err != nil {
			return attempted, failed, err
		}
		got, _, err := p.sys.exec(ctx, p.ops[i].q)
		attempted++
		if err != nil || !reflect.DeepEqual(got, want) {
			failed++
		}
	}
	return attempted, failed, nil
}

// runResult is what one run of one workload reports.
type runResult struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
}

// runEndToEnd is the untraced run: set up, measure for `seconds`, check.
func runEndToEnd(e *env, w *workload, seconds float64) (runResult, error) {
	p, err := prepare(e, w, seconds)
	if err != nil {
		return runResult{}, err
	}
	m := p.measure(time.Duration(seconds*float64(time.Second)), false)
	res, err := p.finish(m)
	if err != nil {
		return runResult{}, err
	}
	ls := summarize(m.phase)
	res.Metrics = map[string]float64{
		"qps":             ls.qps,
		"lat_p50_ms":      ls.p50ms,
		"lat_p95_ms":      ls.p95ms,
		"alloc_kb_per_op": ratio(float64(m.allocBytes)/1000, float64(m.allocOps)),
		"setup_s":         p.setupS,
	}
	if w.ingest {
		res.Metrics["append_rows_per_s"], res.Metrics["append_p95_ms"], _ = appendStats(m)
	}
	return res, nil
}

// finish counts the phase's failures, runs the ingest final-state check
// and closes the system.
func (p *prepared) finish(ms ...measured) (runResult, error) {
	var res runResult
	for _, m := range ms {
		res.Attempted += len(m.samples) + len(m.appends)
		for _, s := range m.samples {
			if !s.ok {
				res.Failed++
			}
		}
		for _, a := range m.appends {
			if !a.ok {
				res.Failed++
			}
		}
	}
	var err error
	if p.w.ingest {
		var a, f int
		a, f, err = p.finalCheck()
		res.Attempted += a
		res.Failed += f
	}
	return res, errors.Join(err, p.sys.close())
}
