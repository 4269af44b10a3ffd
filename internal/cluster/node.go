package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/epoch"
	"repro/internal/frag"
	"repro/internal/storage"
)

// ErrNodeClosed is returned by operations on a closed Node.
var ErrNodeClosed = errors.New("cluster: node is closed")

// NodeConfig describes one node's shard and execution backend. The
// fragmentation, index configuration and cluster placement must be
// identical on every node (and on the coordinator) — they are the
// contract that makes the nodes' fragment ranges disjoint and the
// merged partials byte-identical to a single-node execution.
type NodeConfig struct {
	// Spec is the MDHF fragmentation (required).
	Spec *frag.Spec
	// Indexes is the bitmap index configuration (required).
	Indexes frag.IndexConfig
	// Index is this node's position in the cluster placement.
	Index int
	// Cluster is the node-level placement: Disks is the node count and
	// Scheme/Staggered/Cluster the same knobs the per-disk placement has,
	// reused one level up. Disks <= 1 means a single node owning every
	// fragment.
	Cluster alloc.Placement

	// OnDisk selects the paged-file backend; Dir is its root ("" means a
	// temporary directory owned and removed by the node). The in-memory
	// engine is the default.
	OnDisk bool
	Dir    string
	// Compress stores the on-disk bitmaps WAH-compressed; the in-memory
	// engine keeps Bitsets either way.
	Compress bool
	// Disks declusters the node's on-disk backend over its own disk set
	// with DiskScheme and Staggered (the per-disk tier of the two-tier
	// model); 0 means one plain store.
	Disks      int
	DiskScheme alloc.Scheme
	Staggered  bool
	// PrefetchFact is the fact read granule in pages (0 = default 8).
	PrefetchFact int
	// IODelay simulates per-access disk latency when IODelaySet.
	IODelay    time.Duration
	IODelaySet bool
	// Workers sizes the node's own scheduler pool (<1 = one per CPU);
	// AdmitLimit bounds concurrently admitted executions (0 = unbounded),
	// shedding excess with exec.ErrOverloaded.
	Workers    int
	AdmitLimit int
	// FaultPlan and Retry install disk-fault injection and the physical
	// read retry policy on the node's disk set.
	FaultPlan *storage.FaultPlan
	Retry     *storage.RetryPolicy
	// SharedWindow enables shared multi-query scans on this node:
	// sub-requests admitted within the window against the same serving
	// state batch into one scan over their fragment union (see the
	// warehouse's WithSharedScans). <= 0 disables sharing.
	SharedWindow time.Duration
}

// Node serves one shard of a declustered cluster: the fragments the
// cluster placement assigns to its index. It is the warehouse's own
// serving core — epoch.Store: scheduler with bounded admission, snapshot
// pinning, journaled delta ingestion, epoch-rolling compaction, shared
// scans — scoped to that fragment range by an ownership predicate, plus
// the kill switch, NodeError wrapping and the wire types. All methods
// are safe for concurrent use.
type Node struct {
	index int
	store *epoch.Store

	failed  atomic.Bool
	queries atomic.Int64
}

// NewNode builds a node serving the given shard at epoch 0 from a
// NodeConfig — the server side's flat configuration (cmd/mdhfnode); see
// NewStoreNode.
func NewNode(cfg NodeConfig, rows *data.Table) (*Node, error) {
	scfg := epoch.Config{
		Spec:         cfg.Spec,
		Indexes:      cfg.Indexes,
		OnDisk:       cfg.OnDisk,
		Dir:          cfg.Dir,
		Compress:     cfg.Compress,
		Placement:    alloc.Placement{Disks: cfg.Disks, Scheme: cfg.DiskScheme, Staggered: cfg.Staggered},
		PrefetchFact: cfg.PrefetchFact,
		FaultPlan:    cfg.FaultPlan,
		Retry:        cfg.Retry,
		Workers:      cfg.Workers,
		AdmitLimit:   cfg.AdmitLimit,
		SharedWindow: cfg.SharedWindow,
	}
	if cfg.IODelaySet {
		scfg.IODelay = cfg.IODelay
	}
	return NewStoreNode(scfg, cfg.Index, cfg.Cluster, rows)
}

// NewStoreNode builds node index of the cluster placement cl, serving
// the given shard at epoch 0 on a store configured by scfg, which it
// scopes to the node's fragments (Own) and whose Closed it sets. The
// rows must all belong to fragments the node owns (PartitionTable
// produces exactly that); ownership is enforced on Append, while the
// initial build trusts its caller. An on-disk node journals every
// acknowledged Append under its root, so a node rebuilt over the same
// Dir and rows replays the journal and serves what it served before it
// went down. The caller must Close the node.
func NewStoreNode(scfg epoch.Config, index int, cl alloc.Placement, rows *data.Table) (*Node, error) {
	if scfg.Spec == nil {
		return nil, fmt.Errorf("cluster: a node needs a fragmentation (Spec)")
	}
	if cl.Disks < 1 {
		cl.Disks = 1
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if index < 0 || index >= cl.Disks {
		return nil, fmt.Errorf("cluster: node index %d out of range [0,%d)", index, cl.Disks)
	}
	if rows == nil || rows.Star != scfg.Spec.Star() {
		return nil, fmt.Errorf("cluster: node rows missing or generated for a different schema")
	}
	scfg.Own = nil // a single-node cluster: every fragment is local
	if cl.Disks > 1 {
		scfg.Own = func(id int64) bool { return cl.FactDisk(id) == index }
	}
	scfg.Closed = ErrNodeClosed
	n := &Node{index: index, store: epoch.New(scfg)}
	if err := n.store.Build(rows); err != nil {
		n.store.Close()
		return nil, err
	}
	return n, nil
}

// Index returns the node's position in the cluster placement.
func (n *Node) Index() int { return n.index }

// Fail kills the node: every subsequent request fails fast with a typed
// NodeError wrapping ErrNodeFailed until Revive. In-flight executions
// finish normally (their snapshot stays pinned) — the fault model is a
// node that stops accepting work, not one that corrupts it.
func (n *Node) Fail() { n.failed.Store(true) }

// Revive brings a killed node back.
func (n *Node) Revive() { n.failed.Store(false) }

// Failed reports whether the node is killed.
func (n *Node) Failed() bool { return n.failed.Load() }

// nodeErr wraps a node-side failure with the node index.
func (n *Node) nodeErr(err error) error {
	return &NodeError{Node: n.index, Err: err}
}

// begin admits one request: it fails fast on a killed node, else
// registers an in-flight operation the caller must End.
func (n *Node) begin() error {
	if n.failed.Load() {
		return n.nodeErr(ErrNodeFailed)
	}
	if err := n.store.Begin(); err != nil {
		return n.nodeErr(err)
	}
	return nil
}

// Exec runs one scattered sub-query over the fragments this node owns
// and returns the node's partial. The execution is admitted to the
// node's own scheduler (shedding with exec.ErrOverloaded past the
// admission limit) and pins the node's serving snapshot, so concurrent
// appends and compactions never change an in-flight partial.
func (n *Node) Exec(ctx context.Context, req Request) (Response, error) {
	n.queries.Add(1)
	if err := n.begin(); err != nil {
		return Response{}, err
	}
	defer n.store.End()
	snap, err := n.store.Pin()
	if err != nil {
		return Response{}, n.nodeErr(err)
	}
	defer n.store.Unpin(snap.B)
	q := req.Query()
	out, err := n.store.Exec(ctx, snap, q)
	if err != nil {
		return Response{}, n.nodeErr(err)
	}
	resp := Response{Epoch: snap.Epoch, Grouped: len(q.GroupBy) > 0, Engine: out.Engine, IO: out.IO, Shared: out.Shared, DeltaRows: out.DeltaRows}
	packPartial(&resp, out.Part)
	return resp, nil
}

// Append ingests a batch of rows into the node's delta set. Every row
// must belong to a fragment this node owns — the single-writer-per-
// fragment invariant; a batch holding a foreign fragment's row is
// rejected before anything is admitted. Within each fragment the rows
// keep arrival order, each touched fragment gets one new write-once
// segment, an on-disk node journals each sealed segment before
// acknowledging, and the new delta set publishes
// atomically: queries admitted after Append returns see the rows,
// pinned ones do not.
func (n *Node) Append(ctx context.Context, rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := n.begin(); err != nil {
		return err
	}
	defer n.store.End()
	if err := n.store.Append(rows); err != nil {
		return n.nodeErr(err)
	}
	return nil
}

// Compact synchronously folds the node's sealed delta segments into the
// next epoch's backend, fragment by fragment — the store's three-phase epoch
// roll-over scoped to one shard. It is a no-op when nothing was
// appended; queries keep being admitted throughout (pinning the old
// epoch) and appends keep landing past the frozen boundary.
func (n *Node) Compact(ctx context.Context) error {
	if err := n.begin(); err != nil {
		return err
	}
	defer n.store.End()
	if err := n.store.Compact(ctx); err != nil {
		return n.nodeErr(err)
	}
	return nil
}

// Stats snapshots the node's serving counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Index:    n.index,
		Counters: n.store.Counters(),
		Queries:  n.queries.Load(),
		Failed:   n.failed.Load(),
		Sched:    n.store.Sched.Stats(),
	}
}

// Close drains in-flight work, stops the scheduler, closes the backend
// and journal files and removes the node's own temporary directory.
func (n *Node) Close() error { return n.store.Close() }
