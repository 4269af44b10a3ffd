package mdhf

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/dimtable"
	"repro/internal/frag"
	"repro/internal/schema"
)

// Multi-node serving types (see OpenCluster).
type (
	// ClusterNode is one serving node: the fragments the cluster
	// placement assigns to its index, behind the node's own scheduler,
	// snapshot pinning and delta ingestion. Build one per shard with
	// NewClusterNode, serve it with NewNodeHandler (or cmd/mdhfnode).
	ClusterNode = cluster.Node
	// ClusterNodeConfig configures one ClusterNode.
	ClusterNodeConfig = cluster.NodeConfig
	// ClusterNodeStats is one node's server-side serving snapshot.
	ClusterNodeStats = cluster.NodeStats
	// ClusterClientStats is the coordinator's client-side accounting for
	// one node (retries, hedges, breaker trips, fast-fails).
	ClusterClientStats = cluster.ClientStats
	// ClusterExecStats describes one scattered execution's fan-out.
	ClusterExecStats = cluster.ExecStats
	// NodeError wraps any failure of one node's sub-request with the
	// node index; unwrap with errors.As.
	NodeError = cluster.NodeError
)

// Typed cluster errors.
var (
	// ErrNodeFailed marks requests rejected by a killed node.
	ErrNodeFailed = cluster.ErrNodeFailed
	// ErrNodeUnavailable marks transport-level failures (the only kind
	// the coordinator retries).
	ErrNodeUnavailable = cluster.ErrUnavailable
	// ErrBreakerOpen marks sub-requests failed fast by a node's open
	// circuit breaker.
	ErrBreakerOpen = cluster.ErrBreakerOpen
)

// NewClusterNode builds one serving node over its shard of the fact
// rows (PartitionFactTable produces the shards). The fragmentation,
// index configuration and cluster placement must be identical across
// the cluster.
func NewClusterNode(cfg ClusterNodeConfig, rows *FactTable) (*ClusterNode, error) {
	return cluster.NewNode(cfg, rows)
}

// NewNodeHandler serves one node over HTTP (binary-framed POST /exec,
// /append, /compact; JSON GET /stats) — the server side of WithNodeAddrs.
func NewNodeHandler(n *ClusterNode) http.Handler {
	return cluster.NewNodeHandler(n)
}

// PartitionFactTable splits a fact table into one shard per node of the
// cluster placement, routing every row to the node owning its fragment.
func PartitionFactTable(spec *Fragmentation, cl Placement, t *FactTable) []*FactTable {
	return cluster.PartitionTable(spec, cl, t)
}

// Cluster is the multi-node serving façade: the Warehouse surface —
// Query/QueryText, Explain, Execute, Append, Compact, ServingStats —
// over N declustered node shards. OpenCluster assembles it; every
// fragment is owned by exactly one node (the disk-placement math one
// level up), queries scatter to the owning nodes and gather partials,
// and results are byte-identical to a single-node Warehouse over the
// same rows at any node count, either scheme, and on either transport.
//
// Consistency: each node is individually epoch-versioned with snapshot
// pinning, and the single-writer-per-fragment invariant keeps every
// fragment's delta chain in deterministic arrival order; there is no
// cross-node snapshot isolation — a query racing an Append may see the
// new rows on one node before another, exactly as two independent
// warehouses would. Await Append before querying when byte-stable
// results matter.
type Cluster struct {
	star *schema.Star
	spec *frag.Spec
	icfg frag.IndexConfig
	seed int64
	opt  options
	cl   alloc.Placement

	mu     sync.Mutex
	closed bool

	table    *data.Table
	dataOnce sync.Once
	dataErr  error

	buildOnce sync.Once
	buildErr  error
	nodes     []*cluster.Node // nil over an HTTP transport
	coord     *cluster.Coordinator

	catOnce sync.Once
	catalog *dimtable.Catalog
}

// OpenCluster assembles a Cluster from the same Config a Warehouse
// takes plus WithNodes (node count and ownership scheme). By default
// the nodes are built in-process on first Execute — each its own
// backend per the usual options (WithOnDisk, WithDisks, WithIODelay,
// WithAdmissionLimit, ...) over its shard of the fact data; with
// WithNodeAddrs the nodes are remote NewNodeHandler servers and nothing
// is built locally. The caller must Close the returned handle.
func OpenCluster(ctx context.Context, cfg Config, opts ...Option) (*Cluster, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt := defaultOptions()
	for _, o := range opts {
		o(&opt)
	}
	if err := rejectUnhonored("OpenCluster", opt.warehouseOnly); err != nil {
		return nil, err
	}
	star, spec, icfg, seed, err := resolveConfig(cfg)
	if err != nil {
		return nil, err
	}
	if spec == nil {
		return nil, fmt.Errorf("mdhf: OpenCluster requires a fragmentation (it is the sharding function)")
	}
	n := opt.nodes
	if len(opt.nodeAddrs) > 0 {
		if n != 0 && n != len(opt.nodeAddrs) {
			return nil, fmt.Errorf("mdhf: WithNodes(%d) disagrees with %d node addresses", n, len(opt.nodeAddrs))
		}
		n = len(opt.nodeAddrs)
	}
	if n < 1 {
		return nil, fmt.Errorf("mdhf: OpenCluster requires WithNodes or WithNodeAddrs")
	}
	cl := alloc.Placement{Disks: n, Scheme: opt.nodeScheme}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		star:  star,
		spec:  spec,
		icfg:  icfg,
		seed:  seed,
		opt:   opt,
		cl:    cl,
		table: cfg.Table,
	}
	if len(opt.nodeAddrs) > 0 {
		tr, err := cluster.NewHTTPTransport(opt.nodeAddrs, nil)
		if err != nil {
			return nil, err
		}
		coord, err := c.newCoordinator(tr)
		if err != nil {
			return nil, err
		}
		c.coord = coord
		c.buildOnce.Do(func() {}) // remote nodes: nothing to build
	}
	return c, nil
}

func (c *Cluster) newCoordinator(tr cluster.Transport) (*cluster.Coordinator, error) {
	ccfg := cluster.CoordinatorConfig{Spec: c.spec, Cluster: c.cl, Hedge: c.opt.hedge}
	if c.opt.retry != nil {
		ccfg.Retry = *c.opt.retry
	}
	return cluster.NewCoordinator(ccfg, tr)
}

// Star returns the schema the cluster serves.
func (c *Cluster) Star() *Star { return c.star }

// Fragmentation returns the MDHF fragmentation — also the cluster's
// sharding function.
func (c *Cluster) Fragmentation() *Fragmentation { return c.spec }

// Nodes returns the cluster's node count.
func (c *Cluster) Nodes() int { return c.cl.Disks }

// Placement returns the cluster-level placement (Disks = node count).
func (c *Cluster) Placement() Placement { return c.cl }

// ensureData generates the fact table once (unless Config.Table
// supplied it). Only the in-process transport materialises data.
func (c *Cluster) ensureData() error {
	c.dataOnce.Do(func() {
		if c.table != nil {
			return
		}
		c.table, c.dataErr = data.Generate(c.star, c.seed)
	})
	return c.dataErr
}

// ensure lazily builds the in-process nodes and the coordinator on
// first use (a no-op over WithNodeAddrs).
func (c *Cluster) ensure(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	c.buildOnce.Do(func() { c.buildErr = c.build() })
	return c.buildErr
}

// build materialises the shards and brings up one in-process node per
// placement slot, then the Local transport and the coordinator.
func (c *Cluster) build() error {
	if err := c.ensureData(); err != nil {
		return err
	}
	parts := cluster.PartitionTable(c.spec, c.cl, c.table)
	nodes := make([]*cluster.Node, len(parts))
	for k := range parts {
		n, err := cluster.NewNode(c.nodeConfig(k), parts[k])
		if err != nil {
			for _, built := range nodes[:k] {
				built.Close()
			}
			return err
		}
		nodes[k] = n
	}
	coord, err := c.newCoordinator(cluster.NewLocal(nodes))
	if err != nil {
		for _, n := range nodes {
			n.Close()
		}
		return err
	}
	c.mu.Lock()
	c.nodes, c.coord = nodes, coord
	c.mu.Unlock()
	return nil
}

// nodeConfig maps the cluster's options onto one node's configuration:
// every per-warehouse knob becomes per-node (its own workers, admission
// limit, disks, fault plan).
func (c *Cluster) nodeConfig(k int) cluster.NodeConfig {
	ncfg := cluster.NodeConfig{
		Spec:         c.spec,
		Indexes:      c.icfg,
		Index:        k,
		Cluster:      c.cl,
		OnDisk:       c.opt.onDisk,
		Compress:     c.opt.compress,
		Disks:        c.opt.disks,
		DiskScheme:   c.opt.scheme,
		Staggered:    c.opt.staggered,
		PrefetchFact: c.opt.params.FactPrefetch,
		IODelay:      c.opt.ioDelay,
		IODelaySet:   c.opt.ioDelaySet,
		Workers:      c.opt.workers,
		AdmitLimit:   c.opt.admitLimit,
		FaultPlan:    c.opt.faultPlan,
		Retry:        c.opt.retry,
		SharedWindow: c.opt.sharedWindow,
	}
	if c.opt.dir != "" {
		ncfg.Dir = fmt.Sprintf("%s/node-%02d", c.opt.dir, k)
	}
	return ncfg
}

// Catalog returns the dimension-table catalog (built on first use).
func (c *Cluster) Catalog() *DimCatalog {
	c.catOnce.Do(func() { c.catalog = dimtable.BuildCatalog(c.star) })
	return c.catalog
}

// Query prepares a star query against the cluster.
func (c *Cluster) Query(q Query) *ClusterQuery {
	return &ClusterQuery{c: c, q: q}
}

// QueryText parses and prepares a query in either notation (see
// Warehouse.QueryText).
func (c *Cluster) QueryText(text string) (*ClusterQuery, error) {
	q, err := parseQueryText(c.star, c.Catalog, text)
	if err != nil {
		return nil, err
	}
	return c.Query(q), nil
}

// Append routes each row to the node owning its fragment and fans the
// per-node batches out in parallel — the single-writer-per-fragment
// invariant. A failed node's batch fails the call with a NodeError
// naming it while other nodes' batches still land; appended rows are
// visible to queries admitted after Append returns on every node that
// acknowledged.
func (c *Cluster) Append(ctx context.Context, rows []FactRow) error {
	if err := c.ensure(ctx); err != nil {
		return err
	}
	return c.coord.Append(ctx, rows)
}

// Compact folds every node's sealed deltas into its next epoch, fanning
// the compactions out in parallel.
func (c *Cluster) Compact(ctx context.Context) error {
	if err := c.ensure(ctx); err != nil {
		return err
	}
	return c.coord.Compact(ctx)
}

// FailNode kills an in-process node for fault testing: its sub-requests
// fail fast with ErrNodeFailed (and, after enough strikes, the
// coordinator's breaker fails them faster still) until ReviveNode.
// Queries confined to other nodes' fragments are unaffected. It errors
// on a cluster over WithNodeAddrs — kill the remote process instead.
func (c *Cluster) FailNode(k int) error {
	n, err := c.localNode(k)
	if err != nil {
		return err
	}
	n.Fail()
	return nil
}

// ReviveNode brings a killed in-process node back.
func (c *Cluster) ReviveNode(k int) error {
	n, err := c.localNode(k)
	if err != nil {
		return err
	}
	n.Revive()
	return nil
}

func (c *Cluster) localNode(k int) (*cluster.Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nodes == nil {
		return nil, fmt.Errorf("mdhf: no in-process nodes (not built yet, or serving over WithNodeAddrs)")
	}
	if k < 0 || k >= len(c.nodes) {
		return nil, fmt.Errorf("mdhf: node %d out of range [0,%d)", k, len(c.nodes))
	}
	return c.nodes[k], nil
}

// ClusterServingStats is the cluster-wide serving snapshot: every
// node's server-side counters plus the coordinator's client-side
// per-node accounting.
type ClusterServingStats struct {
	// Nodes holds each node's serving snapshot (epoch, delta set,
	// ingestion counters, scheduler accounting, failure flag), fetched
	// over the transport; a node that cannot answer contributes a zero
	// snapshot with only Index set.
	Nodes []ClusterNodeStats
	// Client holds the coordinator's per-node counters: sub-queries
	// planned, errors, transport retries, hedges and hedge wins, breaker
	// trips and fast-fails.
	Client []ClusterClientStats
}

// ServingStats snapshots the cluster's serving counters. The error (a
// NodeError join) reports nodes whose server-side snapshot could not be
// fetched; the returned struct is complete for all others.
func (c *Cluster) ServingStats(ctx context.Context) (ClusterServingStats, error) {
	if err := c.ensure(ctx); err != nil {
		return ClusterServingStats{}, err
	}
	nodes, err := c.coord.NodeStats(ctx)
	return ClusterServingStats{Nodes: nodes, Client: c.coord.ClientStats()}, err
}

// Close drains and closes the in-process nodes (remote nodes are left
// running) and releases the transport.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	nodes, coord := c.nodes, c.coord
	c.nodes, c.coord = nil, nil
	c.mu.Unlock()
	var err error
	if coord != nil {
		err = errors.Join(err, coord.Close())
	}
	for _, n := range nodes {
		err = errors.Join(err, n.Close())
	}
	return err
}

// ClusterQuery is a star query bound to a Cluster: Explain runs the
// analytical models under the two-tier node×disk response model, and
// Execute scatters the query to the owning nodes.
type ClusterQuery struct {
	c *Cluster
	q Query
}

// Query returns the underlying star query.
func (p *ClusterQuery) Query() Query { return p.q }

// Class returns the paper's Q1-Q4 confinement classification.
func (p *ClusterQuery) Class() QueryClass { return p.c.spec.Classify(p.q) }

// Explain estimates the query without executing it, like
// Warehouse.Explain but under the cluster's two-tier queue model: I/Os
// route to (node, disk-within-node) queues and the modelled bottleneck
// is the slowest node's own bottleneck disk — never a global pool that
// disks of different nodes could share. It needs no fact data and no
// node round trips.
func (p *ClusterQuery) Explain(ctx context.Context) (Explain, error) {
	c := p.c
	return explainModel(ctx, c.star, c.spec, c.icfg, &c.opt, p.q, c.cl)
}

// Execute scatters the query to the nodes owning its relevant
// fragments, gathers and merges their partials, and returns the result
// — byte-identical to a single-node Warehouse over the same rows —
// with unified statistics (Stats.Cluster carries the fan-out). Any
// node failing its sub-request (after transport retries, or fast via
// its breaker) fails the query with a NodeError naming it; no partial
// results are ever returned.
func (p *ClusterQuery) Execute(ctx context.Context) (Result, Stats, error) {
	c := p.c
	if err := c.ensure(ctx); err != nil {
		return Result{}, Stats{}, err
	}
	if d := c.opt.deadline; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	start := time.Now()
	res, est, err := c.coord.Execute(ctx, p.q)
	if err != nil {
		return Result{}, Stats{}, err
	}
	st := Stats{
		Backend:    ClusterBackend,
		Compressed: c.opt.compress && c.opt.onDisk,
		Workers:    c.cl.Disks,
		Wall:       time.Since(start),
		DeltaRows:  est.DeltaRows,
		Engine:     est.Engine,
		IO:         est.IO,
		SharedScan: est.Shared,
		Cluster:    &est,
	}
	return res, st, nil
}
