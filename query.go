package mdhf

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/epoch"
	"repro/internal/exec"
	"repro/internal/simpad"
)

// SchedStats is the admission scheduler's accounting snapshot (see
// Warehouse.ServingStats).
type SchedStats = exec.SchedStats

// BackendKind identifies the execution backend serving a query.
type BackendKind int

const (
	// InMemoryBackend is the goroutine-parallel engine over generated
	// fact data.
	InMemoryBackend BackendKind = iota
	// OnDiskBackend is the paged fact store + bitmap file executor with
	// real prefetch-granule I/O.
	OnDiskBackend
	// DeclusteredBackend is the on-disk executor over a DiskSet of
	// per-disk serialized I/O queues.
	DeclusteredBackend
	// ClusterBackend is a multi-node warehouse's scatter/gather
	// coordinator over node shards (see WithNodes and WithNodeAddrs).
	ClusterBackend
)

func (k BackendKind) String() string {
	switch k {
	case InMemoryBackend:
		return "in-memory"
	case OnDiskBackend:
		return "on-disk"
	case DeclusteredBackend:
		return "declustered"
	case ClusterBackend:
		return "cluster"
	default:
		return fmt.Sprintf("backend(%d)", int(k))
	}
}

// Stats is the unified per-execution report of a Warehouse query: the
// engine work counters, the physical I/O counters and the per-disk
// accesses, merged into one struct regardless of backend. Fields not
// applicable to the serving backend are zero.
type Stats struct {
	// Backend identifies which executor served the query.
	Backend BackendKind
	// Compressed reports that the store's bitmaps are WAH-compressed:
	// WithCompression on an on-disk backend. The in-memory engine keeps
	// plain bitsets, so it is false there whatever the options.
	Compressed bool
	// Workers is the size of the shared pool the execution was admitted
	// to.
	Workers int
	// Wall is the end-to-end execution time as served (including
	// admission queueing behind concurrent queries).
	Wall time.Duration
	// Epoch is the warehouse epoch the execution pinned at admission; the
	// whole query was served from that epoch's backend plus the delta
	// segments sealed by then, regardless of concurrent compactions.
	Epoch int64
	// DeltaRows is the number of appended (not yet compacted) rows folded
	// into the result, on any backend.
	DeltaRows int64
	// CacheHit reports that the result was served from the warehouse's
	// result cache (WithResultCache) without touching the backend; Shared
	// reports that it was obtained by joining an identical concurrent
	// execution (singleflight). Either way the result is byte-identical to
	// an uncached execution and the I/O counters below are zero.
	CacheHit bool
	Shared   bool
	// SharedScan reports the shared-scan batching effect on this
	// execution (WithSharedScans): the batch it ran in, the fragments it
	// co-scanned with batch-mates, and the physical reads it consumed
	// from their reads instead of issuing itself. The logical I/O
	// counters in Engine and IO are unaffected by sharing — they describe
	// the query's own work, byte-identical to solo execution.
	SharedScan SharedScanStats

	// Engine holds the in-memory engine's work counters
	// (fragments/rows/bitmaps).
	Engine EngineStats
	// IO holds the on-disk executor's physical I/O counters.
	IO StorageIOStats
	// Disks snapshots the declustered backend's per-disk access counters
	// at completion. The counters are warehouse-wide (shared by all
	// in-flight queries); per-query attribution lives in IO.
	Disks []DiskStats
	// Cluster reports a scattered execution's fan-out — nodes used,
	// transport retries, hedges — on the ClusterBackend (nil otherwise);
	// Engine, IO and DeltaRows above then aggregate the per-node partial
	// stats.
	Cluster *ClusterExecStats
}

// Delta-read cost types (see Explain.Delta).
type (
	// DeltaCost is the estimated extra work of reading the appended (not
	// yet compacted) delta segments on top of the base-fragment cost.
	DeltaCost = cost.DeltaCost
	// DeltaState summarises the live delta set the estimate is over.
	DeltaState = cost.DeltaState
)

// Explain is the analytical view of one query under the warehouse's
// physical design, unifying the I/O cost model, the per-disk queue
// response model and the SIMPAD physical plan behind one call.
type Explain struct {
	// Class is the paper's Q1-Q4 confinement classification (Section 4.4).
	Class QueryClass
	// Cost is the analytical I/O estimate (Section 4.5) — EstimateCost's,
	// except that an on-disk warehouse counts bitmap I/O per allocation
	// unit of the store it builds, where sub-page bitmap fragments share
	// pages; Cost.Class is the I/O overhead class.
	Cost QueryCost
	// Note says so in plain words when the fragmentation breaks threshold
	// (i) of Section 4.7 (bitmap fragments under a page): their size, how
	// many share an allocation unit, the units a subquery reads, and that
	// Advise with Thresholds.MinBitmapFragPages: 1 rejects it. Empty
	// otherwise.
	Note string
	// Response is the per-disk queue response estimate of
	// EstimateResponse under the warehouse's placement (one disk when not
	// declustered) and access time (WithIODelay, else the Table 4
	// default).
	Response ResponseEstimate
	// Plan is the SIMPAD physical execution plan under the warehouse's
	// SimConfig.
	Plan *SimPlan
	// Delta is the estimated delta-read overhead given the live delta
	// set at Explain time: confinement applies to delta segments exactly
	// as to base fragments, so only the relevant fraction is visited.
	// Zero before anything is appended (or after compaction caught up).
	Delta DeltaCost
	// Cache predicts how the configured buffer pool serves the query's
	// working set (zero value when the warehouse has no pool): the
	// confinement-derived bytes the query touches, the expected steady-
	// state hit rate, and the physical I/O the pool absorbs.
	Cache CacheCost
	// Shared predicts the shared-scan coalescing effect (zero unless the
	// warehouse was opened WithSharedScans): the expected fraction of the
	// query's physical reads it still pays when batched with the observed
	// query mix (this query alone before anything ran) at the observed
	// peak concurrency.
	Shared SharedCost
}

// PreparedQuery is a star query bound to a Warehouse: a cheap, stateless
// handle whose Explain runs the analytical models (no fact data needed)
// and whose Execute runs the real backend through the shared admission
// scheduler. Any number of PreparedQueries may Execute concurrently.
type PreparedQuery struct {
	w *Warehouse
	q Query
}

// Query returns the underlying star query.
func (p *PreparedQuery) Query() Query { return p.q }

// Class returns the paper's Q1-Q4 confinement classification of the
// query under the warehouse's fragmentation (Unsupported on an
// advisory-only warehouse opened without one).
func (p *PreparedQuery) Class() QueryClass {
	if p.w.spec == nil {
		return Unsupported
	}
	return p.w.spec.Classify(p.q)
}

// Explain estimates the query without executing it: the analytical I/O
// cost (Section 4.5), the modelled response under the warehouse's disk
// placement (Section 4.6's queue model), and the SIMPAD physical plan.
// It needs no fact data, so it works before the backend is built — and
// at schema scales that could never be materialised. On a multi-node
// warehouse the response model is two-tier: I/Os route to (node,
// disk-within-node) queues and the modelled bottleneck is the slowest
// node's own bottleneck disk — never a global pool that disks of
// different nodes could share; the delta, cache and shared-scan
// estimates, which read one store's live state, stay zero there.
func (p *PreparedQuery) Explain(ctx context.Context) (Explain, error) {
	w := p.w
	if w.spec == nil {
		return Explain{}, fmt.Errorf("mdhf: warehouse opened without a fragmentation")
	}
	if err := ctx.Err(); err != nil {
		return Explain{}, err
	}
	if err := p.q.Validate(w.star); err != nil {
		return Explain{}, err
	}
	opt := &w.opt
	ex := Explain{Class: w.spec.Classify(p.q)}
	// The response model is left worker-unbounded (only the disks limit
	// parallelism): bounding it by the serving pool would make the
	// analytical estimate vary with the host's core count. Callers
	// wanting the worker-limited critical path can call EstimateResponse
	// with an explicit DiskParams.Workers.
	dp := cost.DiskParams{
		Placement:     opt.modelPlacement(), // on many nodes, each node's own declustering
		NodePlacement: w.cl,
		AccessTime:    opt.modelAccessTime(),
		PackedBitmaps: opt.onDisk,
	}
	if plan := opt.faultPlan; plan != nil {
		// Degraded-disk response: under a fault plan every read costs
		// RetryFactor(p) expected attempts, so every queue — each disk of
		// each node, all running the same plan — deepens by that factor (a
		// permanently failed disk fails queries instead of slowing them,
		// so it is not modelled here).
		if f := cost.RetryFactor(plan.ReadErrorRate + plan.CorruptRate); f > 1 {
			queues := max(w.cl.Disks, 1) * dp.Placement.Disks
			dp.Degraded = make(map[int]float64, queues)
			for k := 0; k < queues; k++ {
				dp.Degraded[k] = f
			}
		}
	}
	ex.Response = cost.EstimateResponse(w.spec, w.icfg, p.q, opt.params, dp)
	ex.Cost = ex.Response.Cost
	ex.Note = cost.BitmapFragNote(w.spec, w.icfg, ex.Cost, dp.PackedBitmaps)
	ex.Plan = simpad.NewPlan(w.spec, w.icfg, p.q, opt.simCfg)
	if opt.cluster > 1 {
		ex.Plan = ex.Plan.Clustered(opt.cluster)
	}
	if w.cl.Disks > 0 {
		return ex, nil
	}
	if set := w.store.Current().Deltas; set.Rows() > 0 {
		ex.Delta = cost.EstimateDelta(w.spec, p.q, cost.DeltaState{
			Fragments: set.Fragments(),
			Segments:  set.Segments(),
			Rows:      set.Rows(),
		})
	}
	if pool := w.store.Pool; pool != nil {
		ex.Cache = cost.EstimateCache(ex.Cost, pool.Budget())
	}
	if opt.sharedWindow > 0 {
		// Predict coalescing against the mix the warehouse actually
		// serves; before anything ran, a self-mix (worst case: full
		// overlap only with itself).
		mix := w.ObservedMix()
		if len(mix) == 0 {
			mix = []WeightedQuery{{Query: p.q, Weight: 1}}
		}
		k := 2
		if pk := int(w.store.Sched.Stats().PeakInFlight); pk > k {
			k = pk
		}
		ex.Shared = cost.EstimateShared(w.spec, p.q, mix, k)
	}
	return ex, nil
}

// Execute runs the query on the warehouse's backend and returns the
// result — the grand-total aggregate plus, when the query has a GROUP BY,
// the per-group rows in deterministic order — together with unified
// statistics. The execution is admitted to the shared worker pool, so any
// number of concurrent Execute calls multiplex onto the same workers and
// disks; results are bit-for-bit identical to executing the query alone.
//
// Grouped roll-ups are the workload MDHF was designed for: when every
// GROUP BY level is at or above the fragmentation level of its dimension
// (Explain reports Cost.GroupAligned), each fragment belongs to exactly
// one group and grouping adds no per-row work and no extra I/O.
func (p *PreparedQuery) Execute(ctx context.Context) (Result, Stats, error) {
	w := p.w
	if err := w.admit(ctx); err != nil {
		return Result{}, Stats{}, err
	}
	defer w.store.End()
	if d := w.opt.deadline; d > 0 {
		// Per-query deadline (WithQueryDeadline): bound this execution so a
		// query stuck behind failing disks fails with DeadlineExceeded
		// instead of hanging its caller. A tighter caller deadline wins.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	var res Result
	var st Stats
	var err error
	switch {
	case w.coord != nil:
		res, st, err = p.executeNodes(ctx)
	case w.rcache != nil:
		res, st, err = p.executeCached(ctx)
	default:
		// Pin the serving snapshot: this epoch's backend plus the delta
		// segments sealed so far. Concurrent appends and compactions replace
		// the store's snapshot copy-on-write, so this execution's view — and
		// result — is frozen at admission.
		var snap epoch.Snapshot
		snap, err = w.store.Pin()
		if err != nil {
			return Result{}, Stats{}, err
		}
		defer w.store.Unpin(snap.B)
		res, st, err = p.executeOn(ctx, snap)
	}
	if err == nil {
		w.recordObserved(p.q)
	}
	return res, st, err
}

// baseStats fills the execution-independent Stats fields for a snapshot —
// the backend identity a cache-served result still reports.
func (w *Warehouse) baseStats(snap epoch.Snapshot) Stats {
	st := Stats{
		Compressed: w.opt.compress && w.opt.onDisk,
		Workers:    w.store.Sched.Workers(),
		Epoch:      snap.Epoch,
	}
	switch {
	case snap.B.Disk == nil:
		st.Backend = InMemoryBackend
	case snap.B.Disk.Disks != nil:
		st.Backend = DeclusteredBackend
	default:
		st.Backend = OnDiskBackend
	}
	return st
}

// executeOn runs the query against an already-pinned snapshot — the
// shared tail of the plain and cached Execute paths. The caller owns the
// pin and the in-flight registration. The store decides how the query
// runs (with shared scans on it first tries the admission batcher, so
// even a result-cache miss leader coalesces with merely-overlapping
// concurrent queries); the member's Stats are what solo execution would
// have counted, with the physical savings in Stats.SharedScan. Only here
// are the rows flattened.
func (p *PreparedQuery) executeOn(ctx context.Context, snap epoch.Snapshot) (Result, Stats, error) {
	start := time.Now()
	out, err := p.w.store.Exec(ctx, snap, p.q)
	if err != nil {
		return Result{}, Stats{}, err
	}
	st := p.w.baseStats(snap)
	st.Engine, st.IO, st.DeltaRows, st.SharedScan = out.Engine, out.IO, out.DeltaRows, out.Shared
	if d := snap.B.Disk; d != nil && d.Disks != nil {
		st.Disks = d.Disks.Stats()
	}
	st.Wall = time.Since(start)
	return out.Gr.Result(out.Part), st, nil
}

// ExplainAll estimates every query, fanning the analyses out over the
// warehouse's shared worker pool; results return in argument order.
func (w *Warehouse) ExplainAll(ctx context.Context, qs []Query) ([]Explain, error) {
	if err := w.store.Begin(); err != nil {
		return nil, err
	}
	defer w.store.End()
	return exec.MapOn(ctx, w.store.Sched, len(qs),
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (Explain, error) {
			return w.Query(qs[i]).Explain(ctx)
		})
}
