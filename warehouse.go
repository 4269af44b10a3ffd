package mdhf

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/dimtable"
	"repro/internal/epoch"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/schema"
	"repro/internal/simpad"
)

// ErrClosed is returned by operations on a closed Warehouse.
var ErrClosed = errors.New("mdhf: warehouse is closed")

// Config describes what a Warehouse serves: the star schema, the MDHF
// fragmentation, and the bitmap index configuration. How it serves —
// backend, worker pool, disks, compression — is set by Options.
type Config struct {
	// Star is the star schema (required unless Table is given, in which
	// case it defaults to the table's schema).
	Star *Star
	// Fragmentation is the MDHF fragmentation in the paper's notation,
	// e.g. "time::month, product::group". It may be left empty for an
	// advisory-only warehouse (Advise works; Query does not).
	Fragmentation string
	// Indexes assigns a bitmap index kind to each dimension; nil means
	// the paper's APB-1 configuration (encoded product/customer, simple
	// channel/time).
	Indexes IndexConfig
	// Seed drives deterministic data generation and simulation (0 = 1).
	Seed int64
	// Table optionally supplies pre-generated fact data, e.g. to share
	// one table between warehouses; nil means GenerateData(Star, Seed)
	// on first execution.
	Table *FactTable
}

// Warehouse is the serving façade of this library: one handle that owns
// a fragmented warehouse — schema, fragmentation, bitmap indices, and an
// execution backend — plus the serving layer that admits many concurrent
// queries onto one shared worker pool and one disk set. Open assembles
// it; Query hands out per-query objects whose Explain and Execute run
// the analytical models and the real backend respectively.
//
// The same handle serves a warehouse sharded over nodes (WithNodes,
// WithNodeAddrs): each fragment is owned by one node, queries scatter to
// the owning nodes and gather partials, and results are byte-identical
// to a single store's. Each node pins its own snapshots; a query racing
// an Append may see the new rows on one node before another. Only a
// single store has a result cache, DiskSet/DiskStats and Explain's
// delta, cache and shared-scan estimates; NodeStats reports the nodes.
//
// The warehouse is epoch-versioned: Append routes incoming fact rows
// into sealed, fragment-aligned delta segments that queries merge with
// the base backend, and a background compactor (see Compact and
// WithAutoCompaction) folds sealed deltas, fragment by fragment, into
// the next epoch's backend. Every admitted execution pins a snapshot — one epoch's
// backend plus the delta set sealed at admission — so compaction never
// blocks admission and never changes an in-flight query's result; the
// old epoch's files stay readable until its last pinned query finishes.
//
// The backend (and the fact data behind it) is built lazily on first
// Execute, so a Warehouse opened only to Explain, Advise or Simulate —
// including over the full-scale APB-1 schema, whose 1.9 billion rows
// cannot be materialised — never generates data.
//
// All methods are safe for concurrent use; Execute calls from any number
// of goroutines multiplex onto the shared pool with per-query admission
// accounting (see ServingStats) and return results bit-for-bit identical
// to executing each query alone.
type Warehouse struct {
	star *schema.Star
	spec *frag.Spec // nil for advisory-only warehouses
	icfg frag.IndexConfig
	seed int64
	opt  options

	// store is the epoch-versioned serving core (buffer pool, snapshots,
	// append, journal, compaction, shared scans) — the same one a cluster
	// node runs over its shard — on the warehouse's one pool, store.Sched,
	// which Close closes. Its state lock also guards
	// rcache, the query-result cache (nil without WithResultCache), which
	// is keyed against the serving snapshot.
	store  *epoch.Store
	rcache *resCache

	// A multi-node warehouse serves through coord over the nodes placed
	// by cl (Disks == 0: a single store), in-process ones (local) built
	// from nodeCfg or remote ones. Its store builds nothing: it admits,
	// so Close drains the nodes' callers, and holds the one pool.
	cl      alloc.Placement
	nodeCfg epoch.Config
	coord   *cluster.Coordinator
	local   []*cluster.Node

	// Observed query mix (QueryMix, AdviseObserved).
	mixMu      sync.Mutex
	mixTotal   int64
	mixDropped int64
	mixByClass map[QueryClass]int64
	mix        map[string]*observedQuery // by appendKey, not by formatted text

	dataOnce sync.Once
	dataErr  error
	table    *data.Table

	buildOnce sync.Once
	buildErr  error

	catOnce sync.Once
	catalog *dimtable.Catalog

	closeOnce sync.Once
}

// Open assembles a Warehouse from the configuration and options. It
// validates the schema, fragmentation and index configuration and starts
// the shared worker pool; the execution backend itself is built on first
// Execute. The caller must Close the returned handle.
func Open(ctx context.Context, cfg Config, opts ...Option) (*Warehouse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt := defaultOptions()
	for _, o := range opts {
		o(&opt)
	}
	if opt.disks != 0 {
		if err := opt.placement().Validate(); err != nil {
			return nil, err
		}
	}
	// The schema defaults to the table's, the index configuration to the
	// APB-1 one and the seed to 1; an empty fragmentation leaves spec nil.
	w := &Warehouse{star: cfg.Star, icfg: cfg.Indexes, seed: cmp.Or(cfg.Seed, 1), opt: opt, table: cfg.Table}
	if w.star == nil && cfg.Table != nil {
		w.star = cfg.Table.Star
	}
	if w.star == nil {
		return nil, fmt.Errorf("mdhf: Config.Star is required")
	}
	if cfg.Table != nil && cfg.Table.Star != w.star {
		return nil, fmt.Errorf("mdhf: Config.Table was generated for a different schema")
	}
	if cfg.Table != nil {
		if err := cfg.Table.Check(); err != nil {
			return nil, fmt.Errorf("mdhf: Config.Table: %w", err)
		}
	}
	if cfg.Fragmentation != "" {
		var err error
		if w.spec, err = frag.Parse(w.star, cfg.Fragmentation); err != nil {
			return nil, err
		}
	}
	if w.icfg == nil {
		w.icfg = frag.APB1Indexes(w.star)
	}
	if len(w.icfg) != len(w.star.Dims) {
		return nil, fmt.Errorf("mdhf: index config has %d entries for %d dimensions", len(w.icfg), len(w.star.Dims))
	}
	n := max(opt.nodes, len(opt.nodeAddrs))
	if opt.nodes < 0 {
		return nil, fmt.Errorf("mdhf: WithNodes(%d): a node count is at least 0", opt.nodes)
	}
	if len(opt.nodeAddrs) > 0 && opt.nodes != 0 && opt.nodes != len(opt.nodeAddrs) {
		return nil, fmt.Errorf("mdhf: WithNodes(%d) disagrees with %d node addresses", opt.nodes, len(opt.nodeAddrs))
	}
	switch {
	case n > 1 || len(opt.nodeAddrs) > 0:
		if w.spec == nil {
			return nil, fmt.Errorf("mdhf: WithNodes requires a fragmentation (it is the sharding function)")
		}
		if opt.resultCache > 0 {
			return nil, fmt.Errorf("mdhf: WithResultCache needs a single store (its keys are one store's epoch and MaxSeq), not %d nodes", n)
		}
		w.cl = alloc.Placement{Disks: n, Scheme: opt.nodeScheme}
		if err := w.cl.Validate(); err != nil {
			return nil, err
		}
	case opt.hedge > 0:
		return nil, fmt.Errorf("mdhf: WithHedgedRequests needs WithNodes(n > 1) or WithNodeAddrs: a single store has no sub-requests to hedge")
	}
	scfg := epoch.Config{
		Spec:         w.spec,
		Indexes:      w.icfg,
		OnDisk:       opt.onDisk,
		Dir:          opt.dir,
		Compress:     opt.compress,
		Placement:    opt.placement(), // Disks == 0: not declustered
		PrefetchFact: opt.params.FactPrefetch,
		IODelay:      opt.ioDelay,
		FaultPlan:    opt.faultPlan,
		Retry:        opt.retry,
		PoolBytes:    opt.poolBytes,
		SharedWindow: opt.sharedWindow,
		AutoCompact:  opt.autoCompact,
		Closed:       ErrClosed,
	}
	if len(opt.nodeAddrs) > 0 {
		tr, err := cluster.NewHTTPTransport(opt.nodeAddrs, nil)
		if err != nil {
			return nil, err
		}
		if w.coord, err = w.newCoordinator(tr); err != nil {
			return nil, err
		}
		w.buildOnce.Do(func() {}) // remote nodes: nothing to build
	}
	// The one pool, for the store and every in-process node.
	scfg.Sched = exec.NewScheduler(opt.workers)
	scfg.Sched.SetLimit(opt.admitLimit)
	if w.cl.Disks > 0 {
		w.nodeCfg = scfg
		w.store = epoch.New(epoch.Config{Sched: scfg.Sched, Closed: ErrClosed})
		return w, nil
	}
	if opt.resultCache > 0 {
		rc := newResCache(opt.resultCache)
		w.rcache = rc
		// Fragment-granular invalidation, atomic with the publish: only
		// result-cache entries whose confinement region contains a touched
		// fragment are evicted (and intersecting in-flight computations
		// poisoned); everything else is re-keyed to the new MaxSeq and
		// keeps serving.
		scfg.Published = func(touched []int64, maxSeq uint64) { rc.invalidate(w.spec, touched, maxSeq) }
		// Compaction is result-neutral (the rebuilt backend serves
		// byte-identical results), so re-key every entry to the new epoch
		// instead of flushing the cache.
		scfg.Swapped = rc.rekeyAll
	}
	w.store = epoch.New(scfg)
	return w, nil
}

// Star returns the schema the warehouse serves.
func (w *Warehouse) Star() *Star { return w.star }

// Fragmentation returns the MDHF fragmentation (nil for advisory-only
// warehouses opened without one).
func (w *Warehouse) Fragmentation() *Fragmentation { return w.spec }

// Indexes returns the bitmap index configuration.
func (w *Warehouse) Indexes() IndexConfig { return w.icfg }

// Workers returns the size of the shared worker pool.
func (w *Warehouse) Workers() int { return w.store.Sched.Workers() }

// ServingStats is the warehouse-wide serving snapshot. Each part is the
// struct its counters are kept in where they are counted: the admission
// scheduler's (SchedStats), the epoch store's ingestion counters
// (epoch.Counters: Epoch, DeltaSegments, DeltaRows, Appends, AppendedRows,
// Compactions, CompactedRows), the result cache's with the buffer pool's
// (Cache), the disk set's fault counters (Faults) and the epoch store's
// shared-scan counters (Shared).
type ServingStats struct {
	SchedStats
	epoch.Counters
	// Cache snapshots the caching layer: result-cache hit/miss/shared and
	// invalidation counters plus the buffer pool's counters. Zero when
	// neither WithBufferPool nor WithResultCache was given.
	Cache CacheStats
	// Faults sums the fault-tolerance counters over the current epoch's
	// disk set (see DiskStats for the per-disk breakdown). Zero without a
	// disk set; Shed (load-shedding) lives in SchedStats.
	Faults FaultStats
	// Shared is the shared-scan batching accounting (WithSharedScans).
	// Zero when sharing is disabled.
	Shared SharedServingStats
}

// SharedServingStats is the warehouse-wide shared-scan accounting
// surfaced in ServingStats.Shared (zero without WithSharedScans).
type SharedServingStats = epoch.SharedStats

// ServingStats snapshots the admission scheduler's accounting — queries
// admitted and done, in-flight and peak concurrency, fragment tasks run
// — together with the epoch and ingestion counters. It reads counters
// only, so a poll costs the same whatever the warehouse has served; the
// observed query mix, on a multi-node warehouse the one count of served
// queries, is QueryMix.
func (w *Warehouse) ServingStats() ServingStats {
	st := ServingStats{SchedStats: w.store.Sched.Stats(), Counters: w.store.Counters(), Shared: w.store.SharedStats()}
	if c := w.rcache; c != nil {
		w.store.Lock()
		st.Cache = c.st
		st.Cache.Entries = len(c.entries)
		w.store.Unlock()
	}
	if pool := w.store.Pool; pool != nil {
		st.Cache.Pool = pool.Stats()
	}
	if ds := w.DiskSet(); ds != nil {
		st.Faults = ds.Sum().FaultStats
	}
	return st
}

// Catalog returns the denormalized dimension tables, built on first use;
// its ParseQuery resolves name-level predicates like
// "time.month = 'MONTH-0003'" through one name → member map per level.
// The paper's B*-tree indices on the dimension tables (Section 5) are
// costed by no model here.
func (w *Warehouse) Catalog() *DimCatalog {
	w.catOnce.Do(func() { w.catalog = dimtable.BuildCatalog(w.star) })
	return w.catalog
}

// Table returns the warehouse's fact table, generating it on first use.
// It is the base table of epoch 0; appended rows are not reflected.
func (w *Warehouse) Table(ctx context.Context) (*FactTable, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := w.ensureData(); err != nil {
		return nil, err
	}
	return w.table, nil
}

// DiskSet returns the on-disk backend's current disk set: WithDisks' d
// disks, or the one disk of an on-disk store that is not declustered
// (nil before the backend is built, in memory, and on a multi-node
// warehouse, whose disk sets are per node). Compaction replaces it
// together with the backend: the returned set keeps serving queries
// pinned to its epoch but receives no new ones after the swap.
func (w *Warehouse) DiskSet() *DiskSet {
	b := w.store.Current().B
	if b == nil || b.Disk == nil {
		return nil
	}
	return b.Disk.Disks
}

// DiskStats snapshots the per-disk access counters of the on-disk
// backend's DiskSet — one entry on a store that is not declustered (nil
// whenever DiskSet is). The counters are warehouse-wide: they accumulate
// over every query served since the last ResetDiskStats (or the last
// compaction, which installs a fresh disk set).
func (w *Warehouse) DiskStats() []DiskStats {
	ds := w.DiskSet()
	if ds == nil {
		return nil
	}
	return ds.Stats()
}

// ResetDiskStats zeroes the per-disk access counters of DiskSet.
func (w *Warehouse) ResetDiskStats() {
	if ds := w.DiskSet(); ds != nil {
		ds.ResetStats()
	}
}

// SetIODelay adjusts the simulated per-access disk latency of a built
// on-disk backend at run time (every disk of DiskSet: one unless opened
// WithDisks). The delay survives compaction: each new epoch's backend
// inherits it. It is a no-op before the backend is built, on in-memory
// backends and on a multi-node warehouse — use WithIODelay to configure
// the delay up front.
func (w *Warehouse) SetIODelay(d time.Duration) { w.store.SetIODelay(d) }

// Query prepares a star query against the warehouse. The returned object
// is cheap, stateless and safe to Execute concurrently with any number
// of other queries.
func (w *Warehouse) Query(q Query) *PreparedQuery {
	return &PreparedQuery{w: w, q: q}
}

// QueryText parses and prepares a query in either notation: member
// indices ("customer::store=7, time::month=3") or, when the text quotes
// names or references attributes as dim.level, the dimension-table form
// resolved through the dimension catalog ("customer.store = 'STORE-0007'").
// Both notations accept a trailing GROUP BY clause naming hierarchy
// levels ("... group by time::month, product::family" respectively
// "... group by time.month").
func (w *Warehouse) QueryText(text string) (*PreparedQuery, error) {
	q, err := parseQueryText(w.star, w.Catalog, text)
	if err != nil {
		return nil, err
	}
	return w.Query(q), nil
}

// parseQueryText sniffs the notation of a query text — quoted names or
// dim.level attribute references mean the dimension-table form — and
// parses it; catalog is only called (and the catalog only built) for
// that form.
func parseQueryText(star *schema.Star, catalog func() *DimCatalog, text string) (frag.Query, error) {
	if strings.Contains(text, "'") || (!strings.Contains(text, "::") && strings.Contains(text, ".")) {
		return catalog().ParseQuery(text)
	}
	return frag.ParseQuery(star, text)
}

// Advise ranks the admissible fragmentations of the warehouse's schema
// by total analytical I/O work over the query mix (the Section 4.7
// guidelines), analysing candidates on the warehouse's configured worker
// count. It needs no fact data and works on advisory-only warehouses.
func (w *Warehouse) Advise(mix []WeightedQuery, th Thresholds) []Ranked {
	return cost.AdviseParallel(w.star, w.icfg, mix, th, w.opt.params, w.opt.workers)
}

// Simulate runs the queries through the SIMPAD discrete-event simulator
// under the warehouse's SimConfig (Table 4 defaults, see WithSimConfig),
// with the simulated fragments placed by the warehouse's scheme,
// staggering and clustering over SimConfig.Disks disks. It needs no fact
// data: the simulator models the full-scale physical design.
func (w *Warehouse) Simulate(ctx context.Context, qs ...Query) ([]SimResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if w.spec == nil {
		return nil, fmt.Errorf("mdhf: warehouse opened without a fragmentation")
	}
	cfg := w.opt.simCfg
	pl := w.opt.placement()
	pl.Disks = cfg.Disks
	sys, err := simpad.NewSystem(cfg, w.icfg, pl, w.seed)
	if err != nil {
		return nil, err
	}
	plans := make([]*simpad.Plan, len(qs))
	for i, q := range qs {
		if err := q.Validate(w.star); err != nil {
			return nil, err
		}
		plan := simpad.NewPlan(w.spec, w.icfg, q, cfg)
		if w.opt.cluster > 1 {
			plan = plan.Clustered(w.opt.cluster)
		}
		plans[i] = plan
	}
	return sys.Run(plans), nil
}

// Close drains in-flight executions, appends and compaction, stops the
// background compactor, closes the backend and delta-journal files and
// removes the warehouse's own temporary directory (if it created one) —
// on a multi-node warehouse, every in-process node's, and then the
// transport — and stops the shared worker pool last. Operations
// submitted after Close fail with ErrClosed. It returns any errors
// deferred from background cleanup (retired-epoch removal, journal
// resets) alongside its own.
func (w *Warehouse) Close() error {
	var err error
	w.closeOnce.Do(func() {
		// Every call that reaches the nodes holds a store registration, so
		// none is in flight once the store's Close has drained them.
		err = w.store.Close()
		if w.coord != nil {
			err = errors.Join(err, w.coord.Close())
		}
		for _, n := range w.local {
			err = errors.Join(err, n.Close())
		}
		w.store.Sched.Close() // every store above ran on it
	})
	return err
}

// ensureData generates the fact table once (unless Config.Table supplied
// it).
func (w *Warehouse) ensureData() error {
	w.dataOnce.Do(func() {
		if w.table != nil {
			return
		}
		w.table, w.dataErr = data.Generate(w.star, w.seed)
	})
	return w.dataErr
}

// ensureBackend builds the execution backend once, on first Execute:
// epoch 0 over the fact table, plus (on-disk) the delta journal and its
// replay. The caller holds a store registration, so Close waits for it.
func (w *Warehouse) ensureBackend(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w.buildOnce.Do(func() {
		if w.spec == nil {
			w.buildErr = fmt.Errorf("mdhf: warehouse opened without a fragmentation")
		} else if w.buildErr = w.ensureData(); w.buildErr == nil && w.cl.Disks > 0 {
			w.buildErr = w.buildNodes()
		} else if w.buildErr == nil {
			w.buildErr = w.store.Build(w.table)
		}
	})
	return w.buildErr
}
