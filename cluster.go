package mdhf

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
)

// Multi-node serving types (see WithNodes).
type (
	// ClusterNode is one serving node: the fragments the cluster
	// placement assigns to its index, on the node's own pool (in process,
	// the warehouse's). Build one per shard with NewClusterNode, serve it
	// with NewNodeHandler (or cmd/mdhfnode).
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

// buildNodes materialises the shards and brings up one in-process node
// per placement slot, each a store configured like a single warehouse's
// (nodeCfg) under its own Dir/node-NN and on the warehouse's pool, then
// the Local transport and the coordinator.
func (w *Warehouse) buildNodes() error {
	parts := cluster.PartitionTable(w.spec, w.cl, w.table)
	nodes := make([]*cluster.Node, 0, len(parts))
	closeAll := func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	for k, part := range parts {
		ncfg := w.nodeCfg
		if ncfg.Dir != "" {
			ncfg.Dir = fmt.Sprintf("%s/node-%02d", ncfg.Dir, k)
		}
		n, err := cluster.NewStoreNode(ncfg, k, w.cl, part)
		if err != nil {
			closeAll()
			return err
		}
		nodes = append(nodes, n)
	}
	coord, err := w.newCoordinator(cluster.NewLocal(nodes))
	if err != nil {
		closeAll()
		return err
	}
	w.local, w.coord = nodes, coord
	return nil
}

func (w *Warehouse) newCoordinator(tr cluster.Transport) (*cluster.Coordinator, error) {
	ccfg := cluster.CoordinatorConfig{Spec: w.spec, Cluster: w.cl, Hedge: w.opt.hedge}
	if w.opt.retry != nil {
		ccfg.Retry = *w.opt.retry
	}
	return cluster.NewCoordinator(ccfg, tr)
}

// executeNodes scatters the query to the nodes owning its relevant
// fragments and gathers their partials; Stats.Cluster carries the
// fan-out, and Engine, IO and DeltaRows aggregate the per-node stats.
func (p *PreparedQuery) executeNodes(ctx context.Context) (Result, Stats, error) {
	w := p.w
	start := time.Now()
	res, est, err := w.coord.Execute(ctx, p.q)
	if err != nil {
		return Result{}, Stats{}, err
	}
	return res, Stats{
		Backend:    ClusterBackend,
		Compressed: w.opt.compress && w.opt.onDisk,
		Workers:    w.store.Sched.Workers(),
		Wall:       time.Since(start),
		DeltaRows:  est.DeltaRows,
		Engine:     est.Engine,
		IO:         est.IO,
		SharedScan: est.Shared,
		Cluster:    &est,
	}, nil
}

// FailNode kills an in-process node of a multi-node warehouse for fault
// testing: its sub-requests fail fast with ErrNodeFailed (and, after
// enough strikes, the coordinator's breaker fails them faster still)
// until ReviveNode. Queries confined to other nodes' fragments are
// unaffected. It builds the nodes if no query has yet, and errors on a
// single-store warehouse and over WithNodeAddrs — kill the remote
// process instead.
func (w *Warehouse) FailNode(k int) error {
	n, err := w.localNode(k)
	if err == nil {
		n.Fail()
	}
	return err
}

// ReviveNode brings a killed in-process node back.
func (w *Warehouse) ReviveNode(k int) error {
	n, err := w.localNode(k)
	if err == nil {
		n.Revive()
	}
	return err
}

func (w *Warehouse) localNode(k int) (*cluster.Node, error) {
	if w.cl.Disks == 0 || len(w.opt.nodeAddrs) > 0 {
		return nil, fmt.Errorf("mdhf: no in-process nodes (a single store, or serving over WithNodeAddrs)")
	}
	if k < 0 || k >= w.cl.Disks {
		return nil, fmt.Errorf("mdhf: node %d out of range [0,%d)", k, w.cl.Disks)
	}
	if err := w.admit(context.TODO()); err != nil {
		return nil, err
	}
	defer w.store.End()
	return w.local[k], nil
}

// ClusterServingStats is a multi-node warehouse's per-node serving
// snapshot: every node's server-side counters plus the coordinator's
// client-side per-node accounting.
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

// NodeStats snapshots a multi-node warehouse's per-node serving
// counters (empty on a single store, whose counters are ServingStats).
// The error (a NodeError join) reports nodes whose server-side snapshot
// could not be fetched; the returned struct is complete for all others.
func (w *Warehouse) NodeStats(ctx context.Context) (ClusterServingStats, error) {
	if w.cl.Disks == 0 {
		return ClusterServingStats{}, nil
	}
	if err := w.admit(ctx); err != nil {
		return ClusterServingStats{}, err
	}
	defer w.store.End()
	nodes, err := w.coord.NodeStats(ctx)
	return ClusterServingStats{Nodes: nodes, Client: w.coord.ClientStats()}, err
}

// Cluster is a Warehouse opened over nodes.
//
// Deprecated: a multi-node warehouse is a *Warehouse: use Open with
// WithNodes or WithNodeAddrs.
type Cluster struct{ *Warehouse }

// OpenCluster is Open for a warehouse that names its nodes.
//
// Deprecated: use Open with WithNodes or WithNodeAddrs.
func OpenCluster(ctx context.Context, cfg Config, opts ...Option) (*Cluster, error) {
	w, err := Open(ctx, cfg, opts...)
	if err != nil {
		return nil, err
	}
	if w.opt.nodes < 1 && len(w.opt.nodeAddrs) == 0 {
		w.Close()
		return nil, fmt.Errorf("mdhf: OpenCluster requires WithNodes or WithNodeAddrs")
	}
	return &Cluster{w}, nil
}

// ServingStats is Warehouse.NodeStats.
//
// Deprecated: use Warehouse.NodeStats.
func (c *Cluster) ServingStats(ctx context.Context) (ClusterServingStats, error) {
	return c.NodeStats(ctx)
}
