package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	mdhf "repro"
	"repro/internal/alloc"
	"repro/internal/bitmap"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/schema"
	"repro/internal/storage"
)

// The layer probes. Each one calls a module's public entry points from
// here and times the call; nothing inside the program is instrumented.
// Times come from a serial sample of the workload's own query mix pushed
// through a nested chain of entry points — facade Execute, the backend's
// ExecuteGroupedDeltas, the leaf reads / AND / kernel — so a layer's
// self time is the difference between two levels of the chain. Probes of
// one primitive (pool Get, journal append, wire codec) use fixed inputs
// derived from the common dataset.

const (
	probeSample   = 64 // queries of the workload's mix pushed through the chain
	probeReps     = 3  // timings per query and level; the fastest is kept
	compactRows   = 16384
	poolEntrySize = 32 << 10
)

// prober carries what the probes share.
type prober struct {
	e      *env
	w      *workload
	rec    *recorder
	root   int // the probe root span
	icfg   mdhf.IndexConfig
	sample []op
	out    map[string]float64
}

func runProbes(e *env, rec *recorder, w *workload, ops []op, out map[string]float64) error {
	start := time.Now()
	pr := &prober{e: e, w: w, rec: rec, icfg: mdhf.APB1Indexes(e.star), out: out}
	pr.root = rec.add(0, "probe", start, start, nil)
	pr.sample = ops
	if len(ops) > probeSample {
		pr.sample = ops[:probeSample]
	}
	steps := []func() error{
		pr.driverProbe, pr.execProbe, pr.fragProbe, pr.kernelProbe, pr.poolProbe,
		pr.journalProbe, pr.compactProbe, pr.resultCacheProbe,
		pr.backendProbes, pr.clusterProbes,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	rec.mu.Lock()
	rec.spans[pr.root-1].EndNs = time.Since(rec.t0).Nanoseconds()
	rec.mu.Unlock()
	return nil
}

// loop times n calls of fn as one span and returns the mean per call.
func (pr *prober) loop(name string, n int, fn func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	end := time.Now()
	pr.rec.add(pr.root, name, start, end, map[string]int64{"iterations": int64(n)})
	return end.Sub(start) / time.Duration(n)
}

// each times fn once per index, one span per call, and returns the
// durations in microseconds.
func (pr *prober) each(name string, n int, fn func(i int) error) ([]float64, error) {
	us := make([]float64, n)
	for i := 0; i < n; i++ {
		d, err := pr.rec.timed(pr.root, name, func() error { return fn(i) })
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		us[i] = float64(d) / float64(time.Microsecond)
	}
	return us, nil
}

// fastest times fn per sample query probeReps times and keeps each
// query's fastest run, in microseconds.
func (pr *prober) fastest(name string, qs []op, fn func(q mdhf.Query) error) ([]float64, error) {
	best := make([]float64, len(qs))
	for r := 0; r < probeReps; r++ {
		us, err := pr.each(name, len(qs), func(i int) error { return fn(qs[i].q) })
		if err != nil {
			return nil, err
		}
		for i, v := range us {
			if r == 0 || v < best[i] {
				best[i] = v
			}
		}
	}
	return best, nil
}

func diffs(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// driverProbe measures the host: what a 200 us simulated disk access
// really costs here.
func (pr *prober) driverProbe() error {
	_, err := pr.rec.timed(pr.root, "time.Sleep(200us) x200", func() error {
		pr.out["driver.sleep_200us_actual_us"] = sleepCostUs()
		return nil
	})
	return err
}

// execProbe times scheduler dispatch (192 empty tasks on 4 workers, one
// task per fragment of an unconfined query) and one empty batching window.
func (pr *prober) execProbe() error {
	ctx := pr.e.ctx
	sched := exec.NewScheduler(4)
	defer sched.Close()
	tasks := int(pr.e.spec.NumFragments())
	var err error
	per := pr.loop("exec.MapOn", 200, func(int) {
		_, e := exec.MapOn(ctx, sched, tasks, func() struct{} { return struct{}{} },
			func(struct{}, int) (struct{}, error) { return struct{}{}, nil })
		if e != nil {
			err = e
		}
	})
	pr.out["exec.dispatch_ns_per_task"] = float64(per.Nanoseconds()) / float64(tasks)
	if err != nil {
		return err
	}
	b := exec.NewBatcher[int, int, int](sharedWindow)
	us, err := pr.each("exec.Batcher.Do", 20, func(int) error {
		_, _, e := b.Do(ctx, 0, 0, func(items []int) ([]int, error) { return items, nil })
		return e
	})
	pr.out["exec.batch_window_wait_us"] = median(us)
	return err
}

// fragProbe times query-to-fragment confinement on the sample.
func (pr *prober) fragProbe() error {
	var frags int
	us, err := pr.each("frag.Relevant+FragmentIDs", len(pr.sample), func(i int) error {
		_ = pr.e.spec.Relevant(pr.sample[i].q)
		frags += len(pr.e.spec.FragmentIDs(pr.sample[i].q))
		return nil
	})
	pr.out["frag.plan_us"] = median(us)
	pr.out["frag.fragments_per_query"] = ratio(float64(frags), float64(len(pr.sample)))
	return err
}

// kernelProbe times the aggregation kernel on the whole table as one
// fragment — K=1 over every row, K=16 over sixteen store selections —
// and the delta fold on one 4096-row segment.
func (pr *prober) kernelProbe() error {
	t := pr.e.table
	n := t.N()
	cols := kernel.Columns{Dims: t.Dims, Units: t.UnitsSold, Dollars: t.DollarSales, Costs: t.Cost}
	one := kernel.NewSlot(nil, 0)
	per := pr.loop("kernel.EvalMany/K=1", 50, func(int) {
		kernel.EvalMany([]*kernel.Slot{&one}, []*bitmap.Bitset{nil}, n, cols, nil)
	})
	pr.out["kernel.eval1_mrows_per_s"] = float64(n) / per.Seconds() / 1e6

	const k = 16
	cd := pr.e.star.DimIndex(schema.DimCustomer)
	masks := make([]*bitmap.Bitset, k)
	slots := make([]*kernel.Slot, k)
	var selected int
	for j := range masks {
		masks[j] = bitmap.New(n)
		s := kernel.NewSlot(nil, 0)
		slots[j] = &s
	}
	for i, store := range t.Dims[cd] {
		if int(store) < k {
			masks[store].Set(i)
			selected++
		}
	}
	union := bitmap.New(n)
	per = pr.loop("kernel.EvalMany/K=16", 20, func(int) { kernel.EvalMany(slots, masks, n, cols, union) })
	pr.out["kernel.eval16_mrows_per_s"] = float64(selected) / per.Seconds() / 1e6

	// One sealed delta segment of the newest month's first fragment, folded
	// under a query that selects all of it (the shape ingest readers see).
	ix, err := frag.NewDeltaIndex(pr.e.spec, pr.icfg)
	if err != nil {
		return err
	}
	seg, q := pr.deltaSegment(ix, 4096, 1)
	deltas := kernel.Deltas{Ix: ix, Set: (*frag.DeltaSet)(nil).With(seg)}
	sc := frag.NewDeltaScratch()
	per = pr.loop("kernel.AddDelta", 200, func(int) {
		var part kernel.FragPartial
		if _, e := kernel.AddDelta(deltas, seg.Frag(), q, &part, 0, nil, sc); e != nil {
			err = e
		}
	})
	pr.out["kernel.delta_fold_us_per_krow"] = float64(per) / float64(time.Microsecond) / (float64(seg.Rows()) / 1000)
	return err
}

// deltaSegment seals `rows` rows into one segment of the fragment
// (newest month, product group 0) and returns it with the query that
// selects exactly that month.
func (pr *prober) deltaSegment(ix *frag.DeltaIndex, rows int, seq uint64) (*frag.DeltaSegment, mdhf.Query) {
	star := pr.e.star
	td, pd := star.DimIndex(schema.DimTime), star.DimIndex(schema.DimProduct)
	newest := star.Dims[td].LeafCard() - 1
	leaves := make([]int, len(star.Dims))
	leaves[td] = newest
	id := pr.e.spec.ID(pr.e.spec.CoordOf(leaves))
	perGroup := star.Dims[pd].LeafCard() / star.Dims[pd].Levels[star.Dims[pd].LevelIndex(schema.LvlGroup)].Card
	sb := ix.NewSegment(id)
	row := make([]int32, len(star.Dims))
	for i := 0; i < rows; i++ {
		for d := range row {
			row[d] = int32(i % star.Dims[d].LeafCard())
		}
		row[td], row[pd] = int32(newest), int32(i%perGroup)
		sb.Add(row, int64(1+i%100), int64(2+i%50), int64(1+i%25))
	}
	q := mdhf.Query{Preds: []mdhf.Pred{{Dim: td, Level: star.Dims[td].Leaf(), Member: newest}}}
	return sb.Seal(seq), q
}

// poolProbe times a buffer-pool hit, and an insert into a pool twice
// over its budget (every insert evicts).
func (pr *prober) poolProbe() error {
	const entries = 1024
	key := func(i int) storage.PoolKey {
		return storage.PoolKey{File: storage.PoolFact, Frag: int64(i), Len: poolEntrySize / 4096}
	}
	pool := storage.NewBufPool(2 * entries * poolEntrySize)
	for i := 0; i < entries; i++ {
		if e := pool.Add(key(i), make([]byte, poolEntrySize)); e != nil {
			e.Unpin()
		}
	}
	per := pr.loop("storage.BufPool.Get", 200000, func(i int) {
		if e := pool.Get(key(i % entries)); e != nil {
			e.Unpin()
		}
	})
	pr.out["bufpool.get_ns"] = float64(per.Nanoseconds())

	small := storage.NewBufPool(entries * poolEntrySize / 2)
	bufs := make([][]byte, 2*entries)
	for i := range bufs {
		bufs[i] = make([]byte, poolEntrySize)
	}
	for i := 0; i < entries; i++ { // fill to the budget, untimed
		if e := small.Add(key(i), bufs[i]); e != nil {
			e.Unpin()
		}
	}
	per = pr.loop("storage.BufPool.Add/evict", entries, func(i int) {
		if e := small.Add(key(entries+i), bufs[entries+i]); e != nil {
			e.Unpin()
		}
	})
	pr.out["bufpool.add_evict_ns"] = float64(per.Nanoseconds())
	return nil
}

// journalProbe appends 64 sealed 512-row segments to a fresh journal
// with no disk set attached (delay 0).
func (pr *prober) journalProbe() error {
	ix, err := frag.NewDeltaIndex(pr.e.spec, pr.icfg)
	if err != nil {
		return err
	}
	dir := pr.e.newDir("journal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	log, _, err := storage.OpenDeltaLog(dir, pr.e.star)
	if err != nil {
		return err
	}
	defer log.Close()
	const segs = 64
	seg, _ := pr.deltaSegment(ix, batchRows, 1)
	per := pr.loop("storage.DeltaLog.AppendSegment", segs, func(int) {
		if e := log.AppendSegment(seg, false); e != nil {
			err = e
		}
	})
	pr.out["journal.mb_per_s"] = float64(log.Stats().Bytes) / 1e6 / (per.Seconds() * segs)
	return err
}

// compactProbe times one explicit Compact over 16 384 appended rows on a
// journaled store with zero disk delay.
func (pr *prober) compactProbe() error {
	ctx := pr.e.ctx
	dir := pr.e.newDir("compact")
	w, err := mdhf.Open(ctx, pr.e.cfg, mdhf.WithOnDisk(dir), mdhf.WithCompression(),
		mdhf.WithDisks(diskCount, mdhf.RoundRobin), mdhf.WithIODelay(0), mdhf.WithWorkers(pr.e.procs))
	if err != nil {
		return err
	}
	defer w.Close()
	for _, b := range genBatches(pr.e.star, pr.e.seed, compactRows/batchRows, batchRows) {
		if err := w.Append(ctx, b); err != nil {
			return err
		}
	}
	d, err := pr.rec.timed(pr.root, "Warehouse.Compact", func() error { return w.Compact(ctx) })
	pr.out["compact.s_per_run"] = d.Seconds()
	return err
}

// resultCacheProbe times a result-cache hit: the sample runs once to
// fill the cache and is timed on the second pass.
func (pr *prober) resultCacheProbe() error {
	ctx := pr.e.ctx
	w, err := mdhf.Open(ctx, pr.e.cfg, mdhf.WithCompression(), mdhf.WithWorkers(pr.e.procs), mdhf.WithResultCache(4*probeSample))
	if err != nil {
		return err
	}
	defer w.Close()
	run := func(q mdhf.Query) error {
		_, _, err := w.Query(q).Execute(ctx)
		return err
	}
	for _, p := range pr.sample {
		if err := run(p.q); err != nil {
			return err
		}
	}
	us, err := pr.each("Warehouse.Execute/result-cache hit", len(pr.sample), func(i int) error { return run(pr.sample[i].q) })
	pr.out["rescache.hit_us"] = median(us)
	return err
}

// backendProbes walks the chain facade > backend > leaves on both
// backends, built from the common configuration with zero disk delay and
// no pool, then repeats the storage level at 200 us.
func (pr *prober) backendProbes() error {
	ctx, e, w := pr.e.ctx, pr.e, pr.w
	sched := exec.NewScheduler(e.procs)
	defer sched.Close()

	// In-memory engine.
	eng, err := engine.BuildCompressed(e.table, e.spec, pr.icfg)
	if err != nil {
		return err
	}
	engUs, err := pr.fastest("engine.ExecuteGroupedDeltas", pr.sample, func(q mdhf.Query) error {
		_, _, err := eng.ExecuteGroupedDeltas(ctx, sched, q, kernel.Deltas{})
		return err
	})
	if err != nil {
		return err
	}
	pr.out["engine.exec_us"] = median(engUs)
	var shared []float64
	for g := 0; g+16 <= len(pr.sample); g += 16 {
		qs := make([]frag.Query, 16)
		for i := range qs {
			qs[i] = pr.sample[g+i].q
		}
		d, err := pr.rec.timed(pr.root, "engine.ExecuteSharedDeltas/K=16", func() error {
			_, err := eng.ExecuteSharedDeltas(ctx, sched, qs, kernel.Deltas{}, nil)
			return err
		})
		if err != nil {
			return err
		}
		shared = append(shared, float64(d)/float64(time.Microsecond)/16)
	}
	pr.out["engine.shared16_us_per_query"] = median(shared)

	// On-disk executor.
	dir := e.newDir("probe-store")
	be, err := storage.BuildBackend(dir, e.table, e.spec, pr.icfg, storage.BackendConfig{
		Compress:     true,
		Placement:    alloc.Placement{Disks: diskCount, Scheme: alloc.RoundRobin, Staggered: true, Cluster: 1},
		PrefetchFact: mdhf.DefaultCostParams().FactPrefetch,
		Sched:        sched,
	})
	if err != nil {
		return err
	}
	defer be.Close()
	var io storage.IOStats // summed over every timed run: probeReps x the sample
	storeUs, err := pr.fastest("storage.Executor.ExecuteGroupedDeltas", pr.sample, func(q mdhf.Query) error {
		_, st, err := be.Exec.ExecuteGroupedDeltas(ctx, q, kernel.Deltas{})
		io.Add(st)
		return err
	})
	if err != nil {
		return err
	}
	pr.out["storage.exec_us"] = median(storeUs)
	if err := pr.leafProbes(be); err != nil {
		return err
	}

	// The facade over the backend kind the workload serves from.
	opts := []mdhf.Option{mdhf.WithCompression(), mdhf.WithWorkers(e.procs)}
	backendUs := engUs
	if !w.inMemory {
		opts = append(opts, mdhf.WithOnDisk(e.newDir("probe-facade")), mdhf.WithDisks(diskCount, mdhf.RoundRobin), mdhf.WithIODelay(0))
		backendUs = storeUs
	}
	wh, err := mdhf.Open(ctx, e.cfg, opts...)
	if err != nil {
		return err
	}
	defer wh.Close()
	facade := func(q mdhf.Query) error {
		_, _, err := wh.Query(q).Execute(ctx)
		return err
	}
	if err := facade(pr.sample[0].q); err != nil { // builds the backend
		return err
	}
	facadeUs, err := pr.fastest("Warehouse.Execute", pr.sample, facade)
	if err != nil {
		return err
	}
	pr.out["facade.self_us"] = median(diffs(facadeUs, backendUs))
	m0 := mallocs()
	for _, p := range pr.sample {
		if err := facade(p.q); err != nil {
			return err
		}
	}
	m1 := mallocs()
	for _, p := range pr.sample {
		if w.inMemory {
			_, _, err = eng.ExecuteGroupedDeltas(ctx, sched, p.q, kernel.Deltas{})
		} else {
			_, _, err = be.Exec.ExecuteGroupedDeltas(ctx, p.q, kernel.Deltas{})
		}
		if err != nil {
			return err
		}
	}
	m2 := mallocs()
	pr.out["facade.allocs_per_query"] = (float64(m1-m0) - float64(m2-m1)) / float64(len(pr.sample))

	return pr.costProbes(be, float64(io.FactIOs)/probeReps, float64(io.BitmapIOs)/probeReps)
}

// leafProbes times the storage executor's two physical read paths and
// the WAH AND over the bitmaps a store predicate selects.
func (pr *prober) leafProbes(be *storage.Backend) error {
	ids := be.Store.Fragments()
	gran := mdhf.DefaultCostParams().FactPrefetch
	var buf []byte
	us, err := pr.each("storage.Store.ReadGranule", len(ids), func(i int) error {
		loc, _ := be.Store.Loc(ids[i])
		n := gran
		if int(loc.Pages) < n {
			n = int(loc.Pages)
		}
		data, _, _, err := be.Store.ReadGranule(buf, ids[i], 0, n)
		buf = data
		return err
	})
	if err != nil {
		return err
	}
	pr.out["storage.granule_read_us"] = median(us)

	cd := pr.e.star.DimIndex(schema.DimCustomer)
	var storeDescs []storage.BitmapDesc
	for _, d := range be.Bitmaps.Descs() {
		if d.Dim == cd {
			storeDescs = append(storeDescs, d)
		}
	}
	operands := make([][]*bitmap.Compressed, len(ids))
	var reads []float64
	var words, rawBytes, wahBytes int
	for i, id := range ids {
		for _, d := range storeDescs {
			var c *bitmap.Compressed
			t, err := pr.rec.timed(pr.root, "storage.BitmapFile.ReadCompressedFragment", func() error {
				var err error
				c, _, err = be.Bitmaps.ReadCompressedFragment(id, d)
				return err
			})
			if err != nil {
				return err
			}
			reads = append(reads, float64(t)/float64(time.Microsecond))
			operands[i] = append(operands[i], c)
			words += len(c.Words())
			rawBytes += (c.Len() + 7) / 8
			wahBytes += c.Bytes()
		}
	}
	pr.out["storage.bitmap_read_us"] = median(reads)
	pr.out["bitmap.compress_ratio"] = ratio(float64(rawBytes), float64(wahBytes))
	const reps = 50
	res := &bitmap.Compressed{}
	per := pr.loop("bitmap.AndAllInto", reps, func(int) {
		for _, ops := range operands {
			res = bitmap.AndAllInto(res, ops...)
		}
	})
	pr.out["bitmap.and_mwords_per_s"] = float64(words) / per.Seconds() / 1e6
	pr.out["bitmap.and_us_per_fragment"] = float64(per) / float64(time.Microsecond) / float64(len(ids))
	return nil
}

// costProbes compares Explain with execution: the I/O counts of the
// analytical model against the executor's IOStats over the sample
// (counts, so they repeat exactly), and the modelled response against
// the single-stream wall time at 200 us, which also yields
// storage.exec_delay_us. The delay sample is two queries of each type: an
// unconfined scan takes a third of a second here.
func (pr *prober) costProbes(be *storage.Backend, gotFact, gotBitmap float64) error {
	ctx, e := pr.e.ctx, pr.e
	// Explain needs no backend, so this warehouse never builds one.
	wd, err := mdhf.Open(ctx, e.cfg, diskOptions(e.newDir("probe-explain"))...)
	if err != nil {
		return err
	}
	defer wd.Close()
	var modelFact, modelBitmap float64
	for _, p := range pr.sample {
		ex, err := wd.Query(p.q).Explain(ctx)
		if err != nil {
			return err
		}
		modelFact += float64(ex.Cost.FactIOs)
		modelBitmap += float64(ex.Cost.BitmapIOs)
	}
	pr.out["cost.fact_io_residual_pct"] = 100 * ratio(gotFact-modelFact, modelFact)
	pr.out["cost.bitmap_io_residual_pct"] = 100 * ratio(gotBitmap-modelBitmap, modelBitmap)

	n := min(2*len(pr.w.mix), len(pr.sample))
	delayed := pr.sample[:n]
	be.Disks.SetIODelay(ioDelay)
	defer be.Disks.SetIODelay(0)
	us, err := pr.each("storage.Executor.ExecuteGroupedDeltas/200us", n, func(i int) error {
		_, _, err := be.Exec.ExecuteGroupedDeltas(ctx, delayed[i].q, kernel.Deltas{})
		return err
	})
	if err != nil {
		return err
	}
	pr.out["storage.exec_delay_us"] = median(us)
	var model, wall float64
	for i, p := range delayed {
		ex, err := wd.Query(p.q).Explain(ctx)
		if err != nil {
			return err
		}
		model += float64(ex.Response.Response) / float64(time.Microsecond)
		wall += us[i]
	}
	pr.out["cost.response_residual_pct"] = 100 * ratio(wall-model, model)
	return nil
}

// clusterProbes builds the four node shards with zero disk delay and
// walks node Exec > Coordinator over Local > Coordinator over HTTP, then
// times the wire codec on the sample's own responses.
func (pr *prober) clusterProbes() error {
	ctx, e := pr.e.ctx, pr.e
	nodes, err := buildNodes(e, "probe", 0)
	if err != nil {
		return err
	}
	defer closeNodes(nodes)
	cl := alloc.Placement{Disks: clusterNodes, Scheme: alloc.RoundRobin}
	ccfg := cluster.CoordinatorConfig{Spec: e.spec, Cluster: cl}
	local, err := cluster.NewCoordinator(ccfg, cluster.NewLocal(nodes))
	if err != nil {
		return err
	}
	addrs, stop, err := serveNodes(nodes)
	if err != nil {
		return err
	}
	defer stop()
	tr, err := cluster.NewHTTPTransport(addrs, nil)
	if err != nil {
		return err
	}
	remote, err := cluster.NewCoordinator(ccfg, tr)
	if err != nil {
		return err
	}
	defer remote.Close()

	var nodeUs, slowest, straggler []float64
	var responses []cluster.Response
	for _, p := range pr.sample {
		relevant := map[int]bool{}
		for _, id := range e.spec.FragmentIDs(p.q) {
			relevant[cluster.NodeOf(cl, id)] = true
		}
		req := cluster.Request{Preds: p.q.Preds, GroupBy: p.q.GroupBy}
		var worst, sum float64
		for k := range nodes {
			if !relevant[k] {
				continue
			}
			best := 0.0
			for r := 0; r < probeReps; r++ {
				var resp cluster.Response
				d, err := pr.rec.timed(pr.root, "cluster.Node.Exec", func() error {
					var err error
					resp, err = nodes[k].Exec(ctx, req)
					return err
				})
				if err != nil {
					return err
				}
				if us := float64(d) / float64(time.Microsecond); r == 0 || us < best {
					best = us
				}
				if r == 0 {
					responses = append(responses, resp)
				}
			}
			nodeUs = append(nodeUs, best)
			sum += best
			if best > worst {
				worst = best
			}
		}
		slowest = append(slowest, worst)
		if len(relevant) > 1 {
			straggler = append(straggler, worst/(sum/float64(len(relevant))))
		}
	}
	pr.out["cluster.node_exec_us"] = median(nodeUs)
	pr.out["cluster.straggler_ratio"] = median(straggler)

	coord := func(c *cluster.Coordinator) func(q mdhf.Query) error {
		return func(q mdhf.Query) error { _, _, err := c.Execute(ctx, q); return err }
	}
	localUs, err := pr.fastest("cluster.Coordinator.Execute/local", pr.sample, coord(local))
	if err != nil {
		return err
	}
	remoteUs, err := pr.fastest("cluster.Coordinator.Execute/http", pr.sample, coord(remote))
	if err != nil {
		return err
	}
	pr.out["cluster.gather_us"] = median(diffs(localUs, slowest))
	pr.out["cluster.wire_us"] = median(diffs(remoteUs, localUs))

	const reps = 20
	encoded := make([][]byte, len(responses))
	var bytes int
	per := pr.loop("cluster.EncodeResponse", reps, func(int) {
		for i, r := range responses {
			if encoded[i], err = cluster.EncodeResponse(r); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	for _, b := range encoded {
		bytes += len(b)
	}
	pr.out["cluster.codec_encode_mb_per_s"] = float64(bytes) / 1e6 / per.Seconds()
	pr.out["cluster.response_bytes"] = ratio(float64(bytes), float64(len(encoded)))
	per = pr.loop("cluster.DecodeResponse", reps, func(int) {
		for _, b := range encoded {
			if _, e := cluster.DecodeResponse(b); e != nil {
				err = e
			}
		}
	})
	pr.out["cluster.codec_decode_mb_per_s"] = float64(bytes) / 1e6 / per.Seconds()
	return err
}
