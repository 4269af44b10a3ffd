// Package mdhf is the public API of this reproduction of "Multi-Dimensional
// Database Allocation for Parallel Data Warehouses" (Stöhr, Märtens, Rahm;
// VLDB 2000).
//
// It provides:
//
//   - star schema modelling with hierarchical dimensions (APB-1 built in);
//   - simple and encoded (hierarchical) bitmap join indices;
//   - MDHF, the paper's multi-dimensional hierarchical fragmentation, with
//     query-to-fragment confinement, bitmap elimination, and the
//     fragmentation thresholds and guidelines of Section 4;
//   - the analytical I/O cost model and a fragmentation advisor;
//   - disk allocation schemes including staggered round robin;
//   - a discrete-event Shared Disk PDBS simulator (SIMPAD);
//   - a real goroutine-parallel query engine over generated fact data and
//     a fragment-parallel on-disk executor, both running on the
//     warehouse's one scatter/gather worker pool with deterministic merge
//     and per-worker scratch reuse, over in-memory bitsets or bitmap
//     files stored plain or WAH-compressed (an on-disk format: either
//     decodes into the same scratch bitsets, and one fold per backend
//     runs on them);
//   - the workload generator and the harness regenerating every table and
//     figure of the paper's evaluation;
//   - the Warehouse serving façade tying all of it together: one handle
//     that serves many concurrent star queries over one shared worker
//     pool and one disk set.
//
// # Quick start
//
// Open a Warehouse and serve queries through it (see ExampleOpen for the
// runnable version):
//
//	w, _ := mdhf.Open(ctx, mdhf.Config{
//		Star:          mdhf.APB1Scaled(60),
//		Fragmentation: "time::month, product::group",
//	}, mdhf.WithDisks(8, mdhf.RoundRobin))
//	defer w.Close()
//	q, _ := w.QueryText("customer::store=7")
//	ex, _ := q.Explain(ctx)  // analytical cost + disk-queue response + plan
//	agg, st, _ := q.Execute(ctx)
//
// Explain works at any scale (it needs no fact data); Execute builds the
// configured backend on first use and admits any number of concurrent
// callers onto the shared pool, with results bit-for-bit identical to
// serial execution.
//
// Execution has no other entry point: the engines are assembled and run
// only behind Open — over one store or, WithNodes, many — on the
// warehouse's schedulers. The free functions and aliases below name the
// schema, fragmentation, cost model, allocation, simulation-parameter and
// workload vocabulary that Config, the options, Explain and the advisors
// speak, plus the brute-force scan oracles.
package mdhf

import (
	"repro/internal/alloc"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/dimtable"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/schema"
	"repro/internal/simpad"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Schema types.
type (
	// Star is a star schema with hierarchically structured dimensions.
	Star = schema.Star
	// Dimension is one hierarchical dimension.
	Dimension = schema.Dimension
	// Level is one hierarchy level.
	Level = schema.Level
)

// APB1 returns the paper's evaluation schema: APB-1 with 15 channels,
// 24 months, density 25% — 1,866,240,000 fact rows.
func APB1() *Star { return schema.APB1() }

// APB1Scaled returns a reduced-cardinality APB-1 for in-memory execution.
func APB1Scaled(factor int) *Star { return schema.APB1Scaled(factor) }

// TinySchema returns a minimal APB-1-shaped schema for experimentation.
func TinySchema() *Star { return schema.Tiny() }

// Fragmentation types.
type (
	// Fragmentation is an MDHF fragmentation specification.
	Fragmentation = frag.Spec
	// FragAttr is one fragmentation attribute (dimension and level index).
	FragAttr = frag.Attr
	// Query is a star query: a conjunction of point predicates plus an
	// optional GROUP BY (one or more hierarchy levels).
	Query = frag.Query
	// Pred is one query predicate.
	Pred = frag.Pred
	// LevelRef names one hierarchy level of one dimension — a GROUP BY
	// item.
	LevelRef = frag.LevelRef
	// QueryClass is the paper's Q1-Q4 query classification.
	QueryClass = frag.QueryClass
	// IOClass is the paper's I/O overhead classification.
	IOClass = frag.IOClass
	// Thresholds are the admissibility limits of the Section 4.7 guidelines.
	Thresholds = frag.Thresholds
	// IndexConfig assigns a bitmap index kind to each dimension.
	IndexConfig = frag.IndexConfig
	// IndexSpec configures one dimension's bitmap index.
	IndexSpec = frag.IndexSpec
)

// Query and I/O classes.
const (
	Q1          = frag.Q1
	Q2          = frag.Q2
	Q3          = frag.Q3
	Q4          = frag.Q4
	Unsupported = frag.Unsupported

	IOC1Opt    = frag.IOC1Opt
	IOC1       = frag.IOC1
	IOC2       = frag.IOC2
	IOC2NoSupp = frag.IOC2NoSupp

	SimpleIndexes = frag.SimpleIndexes
	EncodedIndex  = frag.EncodedIndex
)

// NewFragmentation builds a fragmentation from attribute indices.
func NewFragmentation(star *Star, attrs []FragAttr) (*Fragmentation, error) {
	return frag.New(star, attrs)
}

// Range fragmentation (the general MDHF of Section 4.1; the paper's
// evaluation — and this library's simulator and engines — focus on the
// point special case, but RangeFragmentation provides the confinement and
// bitmap-need analysis for arbitrary value-range partitionings).
type (
	// RangeFragmentation is a general multi-dimensional hierarchical range
	// fragmentation.
	RangeFragmentation = frag.RangeSpec
	// RangeFragAttr is one range-partitioned fragmentation attribute.
	RangeFragAttr = frag.RangeAttr
)

// NewRangeFragmentation builds and validates a range fragmentation.
func NewRangeFragmentation(star *Star, attrs []RangeFragAttr) (*RangeFragmentation, error) {
	return frag.NewRange(star, attrs)
}

// UniformRanges splits a hierarchy level's domain into n equal ranges.
func UniformRanges(star *Star, dim, level, n int) RangeFragAttr {
	return frag.UniformRanges(star, dim, level, n)
}

// ParseFragmentation parses the paper's notation, e.g.
// "time::month, product::group".
func ParseFragmentation(star *Star, text string) (*Fragmentation, error) {
	return frag.Parse(star, text)
}

// ParseQuery parses "dim::level=member, ..." notation with an optional
// trailing "group by dim::level, ..." clause.
func ParseQuery(star *Star, text string) (Query, error) {
	return frag.ParseQuery(star, text)
}

// FormatQuery renders a query in the ParseQuery notation (round-trips
// exactly).
func FormatQuery(star *Star, q Query) string {
	return frag.Format(star, q)
}

// EnumerateFragmentations lists every point fragmentation of the schema
// (167 for APB-1).
func EnumerateFragmentations(star *Star) []*Fragmentation {
	return frag.Enumerate(star)
}

// MaxFragments is the paper's nmax threshold (Section 4.4).
func MaxFragments(star *Star, prefetchGran int) int64 {
	return frag.MaxFragments(star, prefetchGran)
}

// APB1Indexes returns the paper's bitmap index configuration (76 bitmaps).
func APB1Indexes(star *Star) IndexConfig { return frag.APB1Indexes(star) }

// MaxBitmaps counts the bitmaps materialised without fragmentation.
func MaxBitmaps(star *Star, cfg IndexConfig) int { return frag.MaxBitmaps(star, cfg) }

// Cost model.
type (
	// QueryCost is an analytical I/O cost estimate.
	QueryCost = cost.QueryCost
	// CostParams are the prefetch parameters of the cost model.
	CostParams = cost.Params
	// WeightedQuery is one query-mix entry for the advisor.
	WeightedQuery = cost.WeightedQuery
	// Ranked is one advisor candidate.
	Ranked = cost.Ranked
)

// DefaultCostParams returns the paper's prefetch settings (8/5 pages).
func DefaultCostParams() CostParams { return cost.DefaultParams() }

// EstimateCost estimates the I/O work of a query under a fragmentation.
func EstimateCost(spec *Fragmentation, cfg IndexConfig, q Query, p CostParams) QueryCost {
	return cost.Estimate(spec, cfg, q, p)
}

// Advise ranks admissible fragmentations by total I/O work over a query
// mix (the guidelines of Section 4.7), analysing candidates on one worker
// per available CPU.
func Advise(star *Star, cfg IndexConfig, mix []WeightedQuery, th Thresholds, p CostParams) []Ranked {
	return cost.Advise(star, cfg, mix, th, p)
}

// Allocation.
type (
	// Placement maps fragments to disks.
	Placement = alloc.Placement
	// AllocScheme selects the fact placement function.
	AllocScheme = alloc.Scheme
)

// Allocation schemes.
const (
	RoundRobin    = alloc.RoundRobin
	GapRoundRobin = alloc.GapRoundRobin
)

// DisksUsed returns the fact-I/O parallelism of a query under a placement.
func DisksUsed(spec *Fragmentation, q Query, p Placement) int {
	return alloc.DisksUsed(spec, q, p)
}

// Declustered storage: the multi-disk model making the allocation schemes
// executable. A DiskSet is D virtual disks with serialized per-disk I/O
// queues; Open with WithDisks shards the store and its bitmap file across
// one.
type (
	// DiskSet models D disks, each a serialized I/O queue with its own
	// simulated access delay.
	DiskSet = storage.DiskSet
	// DiskStats is one disk's access counters.
	DiskStats = storage.DiskStats
	// DiskParams configures the per-disk queue response model.
	DiskParams = cost.DiskParams
	// ResponseEstimate is a modelled query response under a placement.
	ResponseEstimate = cost.ResponseEstimate
	// DiskRanked is one disk-configuration candidate of AdviseDisks.
	DiskRanked = cost.DiskRanked
)

// Fault tolerance: deterministic fault injection on the disk set, typed
// fault errors, and the retry/circuit-breaker policy every physical read
// runs under (see WithFaultPlan, WithRetryPolicy, WithAdmissionLimit and
// WithQueryDeadline).
type (
	// FaultPlan is a deterministic, seedable disk-fault plan: transient
	// read errors, latency spikes, corrupt pages, and sticky disk
	// failures.
	FaultPlan = storage.FaultPlan
	// FaultError is the typed error wrapping every physical-read failure
	// with its disk, file, fragment, offset and fault kind; unwrap with
	// errors.As.
	FaultError = storage.FaultError
	// FaultKind classifies a FaultError.
	FaultKind = storage.FaultKind
	// RetryPolicy bounds the retry/backoff/circuit-breaker behaviour of
	// physical reads.
	RetryPolicy = storage.RetryPolicy
)

// Fault kinds.
const (
	// FaultTransient is a read error that may succeed on retry.
	FaultTransient = storage.FaultTransient
	// FaultChecksum is a page whose CRC32C did not match.
	FaultChecksum = storage.FaultChecksum
	// FaultDiskFailed is a read against a disk marked failed.
	FaultDiskFailed = storage.FaultDiskFailed
	// FaultBreakerOpen is a read refused because the disk's circuit
	// breaker is open (not retried: fail fast).
	FaultBreakerOpen = storage.FaultBreakerOpen
)

// ErrOverloaded is returned by Execute when the warehouse's admission
// limit is reached and the execution is shed (see WithAdmissionLimit).
var ErrOverloaded = exec.ErrOverloaded

// ErrMeasureRange is wrapped by the error with which an on-disk
// warehouse refuses, building its store and at Append, a fact row with a
// measure outside int32, which is what its 20-byte tuples hold.
var ErrMeasureRange = storage.ErrMeasureRange

// DefaultRetryPolicy returns the retry policy physical reads run under
// when WithRetryPolicy is not given: 6 attempts with full-jitter
// exponential backoff, breaker opening after 3 consecutively exhausted
// reads.
func DefaultRetryPolicy() RetryPolicy { return storage.DefaultRetryPolicy() }

// EstimateResponse models a query's response time under a placement with
// serialized per-disk queues: the analytical I/O counts of EstimateCost
// are routed to disks per the placement and the bottleneck queue bounds
// the response.
func EstimateResponse(spec *Fragmentation, cfg IndexConfig, q Query, p CostParams, dp DiskParams) ResponseEstimate {
	return cost.EstimateResponse(spec, cfg, q, p, dp)
}

// AdviseDisks ranks disk counts and placement schemes for a query mix by
// the modelled bottleneck-queue response time — the physical-layer
// counterpart of Advise.
func AdviseDisks(spec *Fragmentation, cfg IndexConfig, mix []WeightedQuery, p CostParams, dp DiskParams, diskCounts []int) []DiskRanked {
	return cost.AdviseDisks(spec, cfg, mix, p, dp, diskCounts)
}

// Simulation.
type (
	// SimConfig holds SIMPAD parameters (Table 4 defaults).
	SimConfig = simpad.Config
	// SimPlan is a physical star query execution plan.
	SimPlan = simpad.Plan
	// SimResult is one simulated query execution.
	SimResult = simpad.Result
)

// DefaultSimConfig returns the paper's simulation parameters (Table 4).
func DefaultSimConfig() SimConfig { return simpad.DefaultConfig() }

// Execution engine.
type (
	// FactTable is a generated in-memory fact table.
	FactTable = data.Table
	// Aggregate is a star query result: COUNT plus the three APB-1
	// measure sums. Every backend accumulates into this one shared
	// kernel type.
	Aggregate = engine.Aggregate
	// EngineStats reports work performed by a query execution.
	EngineStats = engine.Stats
	// Result is a full query result: the grand total (embedded) plus, for
	// grouped queries, the per-group rows in deterministic order
	// (ascending lexicographically in the GROUP BY member tuple).
	Result = kernel.Result
	// GroupRow is one group of a grouped result: the member index per
	// GROUP BY level plus the group's aggregate.
	GroupRow = kernel.Row
	// SharedScanStats reports one execution's shared-scan batching effect
	// (see Stats.SharedScan and WithSharedScans).
	SharedScanStats = kernel.SharedScanStats
	// SharedCost predicts the shared-scan physical-read reduction for a
	// query batched against a mix (see Explain.Shared).
	SharedCost = cost.SharedCost
)

// GenerateData builds a deterministic fact table for the schema.
func GenerateData(star *Star, seed int64) (*FactTable, error) {
	return data.Generate(star, seed)
}

// ScanAggregate computes a query's grand total by naive full scan (the
// engine's correctness oracle). Any GROUP BY is ignored; use
// ScanGroupedAggregate for the grouped oracle.
func ScanAggregate(t *FactTable, q Query) Aggregate {
	return engine.Scan(t, q)
}

// ScanGroupedAggregate computes the full (grouped) query result by naive
// scan with per-row bucketing — the brute-force oracle every grouped
// execution path is checked against.
func ScanGroupedAggregate(t *FactTable, q Query) (Result, error) {
	return engine.ScanGrouped(t, q)
}

// Workload.
type (
	// QueryType is a named star query template.
	QueryType = workload.QueryType
	// QueryGenerator produces queries with random parameters.
	QueryGenerator = workload.Generator
)

// The paper's query types.
var (
	OneStore           = workload.OneStore
	OneMonth           = workload.OneMonth
	OneCode            = workload.OneCode
	OneGroup           = workload.OneGroup
	OneQuarter         = workload.OneQuarter
	OneMonthOneGroup   = workload.OneMonthOneGroup
	OneCodeOneMonth    = workload.OneCodeOneMonth
	OneCodeOneQuarter  = workload.OneCodeOneQuarter
	OneGroupOneQuarter = workload.OneGroupOneQuarter
	OneGroupOneStore   = workload.OneGroupOneStore
)

// NewQueryGenerator returns a deterministic query generator.
func NewQueryGenerator(star *Star, seed int64) *QueryGenerator {
	return workload.NewGenerator(star, seed)
}

// Skewed data generation (the paper's future-work data skew study).
type SkewConfig = data.SkewConfig

// UniformSkew returns a no-skew configuration.
func UniformSkew(star *Star) SkewConfig { return data.UniformSkew(star) }

// GenerateSkewedData builds a fact table with Zipf-skewed member
// frequencies.
func GenerateSkewedData(star *Star, seed int64, skew SkewConfig) (*FactTable, error) {
	return data.GenerateSkewed(star, seed, skew)
}

// Simulator architectures (Shared Nothing is the footnote-3 extension).
const (
	SharedDisk    = simpad.SharedDisk
	SharedNothing = simpad.SharedNothing
)

// On-disk storage.
type (
	// StorageIOStats counts the physical I/O of an execution.
	StorageIOStats = storage.IOStats
	// PoolStats is the buffer pool's counter snapshot.
	PoolStats = storage.PoolStats
	// CacheCost is Explain's predicted buffer-pool effect on one query.
	CacheCost = cost.CacheCost
)

// Dimension tables.
type (
	// DimCatalog holds the denormalized dimension tables with B+-tree
	// indices and resolves name-level queries.
	DimCatalog = dimtable.Catalog
	// DimTable is one dimension table.
	DimTable = dimtable.Table
)

// BuildDimCatalog materialises the dimension tables of the schema.
func BuildDimCatalog(star *Star) *DimCatalog { return dimtable.BuildCatalog(star) }
