package mdhf

import (
	"time"

	"repro/internal/alloc"
	"repro/internal/cost"
	"repro/internal/simpad"
	"repro/internal/storage"
)

// Option configures a Warehouse at Open time.
type Option func(*options)

// options is the resolved option set of one Warehouse.
type options struct {
	workers      int // raw: <1 means one per CPU
	onDisk       bool
	dir          string
	disks        int
	scheme       alloc.Scheme
	staggered    bool
	compress     bool
	ioDelay      time.Duration
	ioDelaySet   bool
	cluster      int
	params       cost.Params
	simCfg       simpad.Config
	autoCompact  int
	poolBytes    int64
	resultCache  int
	faultPlan    *storage.FaultPlan
	retry        *storage.RetryPolicy
	admitLimit   int
	deadline     time.Duration
	nodes        int
	nodeScheme   alloc.Scheme
	nodeAddrs    []string
	hedge        time.Duration
	sharedWindow time.Duration
}

func defaultOptions() options {
	return options{
		staggered: true,
		cluster:   1,
		params:    cost.DefaultParams(),
		simCfg:    simpad.DefaultConfig(),
	}
}

// placement is the configured disk placement (Disks == 0 when not
// declustered).
func (o *options) placement() alloc.Placement {
	return alloc.Placement{Disks: o.disks, Scheme: o.scheme, Staggered: o.staggered, Cluster: o.cluster}
}

// modelPlacement is the placement assumed by Explain's queue response
// model: the configured declustering, or one disk.
func (o *options) modelPlacement() alloc.Placement {
	p := o.placement()
	if p.Disks < 1 {
		p.Disks = 1
	}
	return p
}

// modelAccessTime is the per-access latency assumed by Explain's queue
// response model: the configured I/O delay (an explicit zero models
// ideal disks), or the paper's Table 4 seek + settle time when
// WithIODelay was never given.
func (o *options) modelAccessTime() time.Duration {
	if o.ioDelaySet {
		return o.ioDelay
	}
	return 12 * time.Millisecond
}

// WithWorkers sets the size of the warehouse's shared worker pool — the
// goroutines all concurrent query executions are multiplexed onto, a
// single store's or every in-process node's (WithNodes) alike, and the
// fan-out of Advise and ExplainAll. Values below 1 (the default) mean
// one worker per available CPU.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithOnDisk selects the on-disk backend: the fact table and the
// surviving bitmap fragments are written as paged files in dir and
// queries run with real prefetch-granule I/O. An empty dir means a
// temporary directory owned (and removed on Close) by the warehouse.
func WithOnDisk(dir string) Option {
	return func(o *options) {
		o.onDisk = true
		o.dir = dir
	}
}

// WithDisks declusters the on-disk backend over d virtual disks with the
// given fact placement scheme (RoundRobin or GapRoundRobin), each disk a
// serialized I/O queue shared by every in-flight query. Implies the
// on-disk backend. Bitmap fragments are staggered onto the disks
// following each fact fragment's (Figure 2) unless WithColocatedBitmaps
// is also given. The same placement drives Explain's per-disk queue
// response model.
func WithDisks(d int, scheme AllocScheme) Option {
	return func(o *options) {
		o.onDisk = true
		o.disks = d
		o.scheme = scheme
	}
}

// WithColocatedBitmaps places each fragment's bitmap fragments on the
// fragment's own disk instead of staggering them onto the following
// disks.
func WithColocatedBitmaps() Option {
	return func(o *options) { o.staggered = false }
}

// WithCompression selects the on-disk bitmap format: every bitmap
// fragment is written WAH-compressed (the Section 3.2 space reduction)
// and may span fewer pages. It is a storage format only: a stored bitmap
// is decoded into a worker's scratch bitset where a plain one is
// unpacked, and queries execute — and count their logical I/O — exactly
// as without it. The in-memory engine keeps its bitmaps as plain bitsets
// either way, so without an on-disk backend the option has no effect
// (Stats.Compressed stays false).
func WithCompression() Option {
	return func(o *options) { o.compress = true }
}

// WithIODelay adds a simulated per-access disk latency to every physical
// read (the Table 4 seek + settle + controller model), making disk
// queueing observable on the on-disk backend: every disk of its set —
// the one disk of a store opened without WithDisks — serves one access
// at a time. It also becomes the access time of Explain's queue response
// model — including an explicit zero, which models ideal disks. Implies
// the on-disk backend.
func WithIODelay(d time.Duration) Option {
	return func(o *options) {
		o.onDisk = true
		o.ioDelay = d
		o.ioDelaySet = true
	}
}

// WithClustering groups n consecutive fragments into one allocation
// granule sharing a disk (Section 6.3); it applies to the declustered
// placement, the queue response model, and simulated plans. Values
// below 2 mean no clustering.
func WithClustering(n int) Option {
	return func(o *options) {
		if n < 1 {
			n = 1
		}
		o.cluster = n
	}
}

// WithAutoCompaction triggers a background compaction whenever the live
// (not yet compacted) delta rows reach the threshold. Compaction runs on
// its own goroutine and never blocks Append or query admission; queries
// in flight during a compaction keep their pinned epoch. Zero (the
// default) disables automatic compaction — call Warehouse.Compact
// explicitly instead. On a multi-node warehouse every in-process node
// compacts its own delta rows at the threshold.
func WithAutoCompaction(rows int) Option {
	return func(o *options) {
		if rows < 0 {
			rows = 0
		}
		o.autoCompact = rows
	}
}

// WithBufferPool gives the warehouse a shared granule/page buffer pool
// of the given byte budget: on-disk fact prefetch granules and bitmap
// payload reads are served from memory on repeat access, with strict
// sharded-LRU eviction, pages pinned while a fragment worker aggregates
// from them, and entries keyed by serving epoch so a compaction's swap
// invalidates the retired epoch wholesale. Results are byte-identical
// with and without the pool; the effect is visible in Stats.IO
// (PoolHits/PoolMisses), DiskStats and ServingStats.Cache.Pool, and
// predicted by Explain.Cache. Values below 1 disable the pool. The pool
// only applies to on-disk backends (the in-memory engine reads no
// pages). On a multi-node warehouse every in-process node gets a pool of
// this budget.
func WithBufferPool(bytes int64) Option {
	return func(o *options) {
		if bytes < 1 {
			bytes = 0
		}
		o.poolBytes = bytes
	}
}

// WithResultCache gives the warehouse a query-result cache of the given
// entry capacity: Execute serves repeated queries from memory while the
// serving state they were computed under still holds. Invalidation is
// fragment-granular — an Append evicts only the entries whose
// confinement region contains a touched fragment, and a compaction
// (result-neutral by construction) re-keys entries instead of flushing
// them. Identical concurrent executions collapse onto one computation
// (singleflight). Results are byte-identical to uncached execution;
// Stats.CacheHit/Shared and ServingStats.Cache report the effect.
// Values below 1 disable the cache. Open refuses it with WithNodes(n > 1)
// or WithNodeAddrs: the cache's keys are one store's epoch and MaxSeq.
func WithResultCache(entries int) Option {
	return func(o *options) {
		if entries < 1 {
			entries = 0
		}
		o.resultCache = entries
	}
}

// WithFaultPlan installs a deterministic, seedable fault plan on the
// warehouse's disk set: transient read errors, latency spikes, corrupt
// pages and sticky disk failures are injected at the configured rates,
// and every physical read runs under the retry policy with per-page
// CRC32C verification and per-disk circuit breaking. Implies the
// on-disk backend (a single-disk set when WithDisks was not given, which
// Stats.Backend reports as OnDiskBackend).
// With retries on, query results under a transient/corrupt plan are
// byte-identical to the fault-free run; ServingStats and DiskStats
// report Retries/BreakerTrips/ChecksumFailures/InjectedFaults.
func WithFaultPlan(plan FaultPlan) Option {
	return func(o *options) {
		o.onDisk = true
		o.faultPlan = &plan
	}
}

// WithRetryPolicy overrides the physical-read retry policy (attempts,
// backoff, circuit-breaker threshold and cooldown). Zero fields keep
// their defaults (see DefaultRetryPolicy). Implies the on-disk backend.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(o *options) {
		o.onDisk = true
		o.retry = &p
	}
}

// WithAdmissionLimit bounds the number of concurrently admitted query
// executions: executions beyond the limit are shed immediately with
// ErrOverloaded instead of queueing unboundedly — the warehouse stays
// responsive for the admitted load. Zero (the default) means unbounded.
// One limit covers the warehouse's pool: over in-process nodes a query
// scattered to k nodes is k admitted executions, and an excess one fails
// the query with ErrOverloaded inside a NodeError. A node process
// (WithNodeAddrs) admits by its own ClusterNodeConfig.AdmitLimit.
func WithAdmissionLimit(n int) Option {
	return func(o *options) { o.admitLimit = n }
}

// WithQueryDeadline enforces a per-query deadline on every Execute: the
// execution's context is bounded to d, so a query stuck behind failing
// disks or a deep queue fails with context.DeadlineExceeded instead of
// hanging its caller. Zero (the default) means no deadline; an explicit
// deadline on the caller's own context always applies too (whichever
// expires first wins).
func WithQueryDeadline(d time.Duration) Option {
	return func(o *options) {
		if d < 0 {
			d = 0
		}
		o.deadline = d
	}
}

// WithNodes shards the warehouse over n serving nodes: the cluster-level
// placement assigns every fragment to exactly one node by the given
// scheme — the same round-robin / gap-round-robin math that declusters
// fragments over disks, applied one level up — and queries scatter to
// the owning nodes and gather their partials (Stats.Backend is then
// ClusterBackend). Every other option applies per node: each in-process
// node is a store configured like a single warehouse's, under its own
// WithOnDisk subdirectory node-NN, with its own worker pool, admission
// limit, buffer pool, compactor and (WithDisks) disk set; Explain's
// response model becomes the two-tier node×disk queue model. n ≤ 1
// means a single store (unless WithNodeAddrs names the nodes).
func WithNodes(n int, scheme AllocScheme) Option {
	return func(o *options) {
		o.nodes = n
		o.nodeScheme = scheme
	}
}

// WithNodeAddrs serves the warehouse over HTTP from remote nodes: node k
// is the server at addrs[k] (see NewNodeHandler and cmd/mdhfnode), the
// scheme of WithNodes still decides fragment ownership, and sub-queries
// travel as binary-framed partials with per-node retry/backoff, circuit
// breaking and (WithHedgedRequests) straggler hedging. Nothing is built
// locally. Without it a multi-node warehouse runs in-process over
// locally built nodes.
func WithNodeAddrs(addrs ...string) Option {
	return func(o *options) {
		o.nodeAddrs = addrs
	}
}

// WithHedgedRequests launches a duplicate sub-query against any node
// that has not answered within d; the first answer wins. Open refuses a
// positive d without WithNodes(n > 1) or WithNodeAddrs: a single store
// has no sub-requests to hedge. Reads are idempotent so hedging never
// changes results for a fixed serving state, but a hedge pair racing a
// concurrent Append may observe different epochs — leave hedging off when
// byte-stable replay matters.
func WithHedgedRequests(d time.Duration) Option {
	return func(o *options) {
		if d < 0 {
			d = 0
		}
		o.hedge = d
	}
}

// WithSharedScans enables shared multi-query scans: executions admitted
// within window of each other against the same serving state (same
// epoch and delta high-water mark) coalesce into one batch whose
// fragment union is scanned once — a single bitmap selection + granule
// read stream per fragment feeds every batched query's predicate and
// aggregation slots. Results and per-query logical I/O statistics stay
// byte-identical to solo execution; the physical savings show up in
// Stats.SharedScan and ServingStats.Shared. The window is the latency a
// leading query donates waiting for batch-mates (O(100µs)–O(1ms) keeps
// it well under one physical disk access); solo queries pay exactly one
// window. Where the result cache collapses *identical* concurrent
// queries, shared scans coalesce merely *overlapping* ones — the two
// compose. A multi-node warehouse passes the window to every node,
// batching each shard's sub-requests. Values ≤ 0 disable sharing.
func WithSharedScans(window time.Duration) Option {
	return func(o *options) {
		if window < 0 {
			window = 0
		}
		o.sharedWindow = window
	}
}

// WithCostParams overrides the analytical cost model's prefetch
// parameters (default: the paper's 8 fact / 5 bitmap pages). The fact
// prefetch granule also drives the on-disk executor's granule reads.
func WithCostParams(p CostParams) Option {
	return func(o *options) { o.params = p }
}

// WithSimConfig overrides the SIMPAD parameter set used by Simulate and
// by Explain's physical plan (default: the paper's Table 4 settings).
func WithSimConfig(cfg SimConfig) Option {
	return func(o *options) { o.simCfg = cfg }
}
