package cluster

import (
	"context"

	"repro/internal/epoch"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/storage"
)

// Request is one scattered sub-query: the star query's predicates and
// GROUP BY, shipped verbatim (both are plain index tuples, a few varints
// each on the wire). Each node intersects the query's relevant
// fragments with the fragment range it owns; the coordinator never
// enumerates per-node fragment lists onto the wire.
type Request struct {
	Preds   []frag.Pred
	GroupBy []frag.LevelRef
}

// Query reassembles the star query.
func (r Request) Query() frag.Query {
	return frag.Query{Preds: r.Preds, GroupBy: r.GroupBy}
}

// Response is one node's partial: the grand-total contribution plus, for
// grouped queries, the per-group partial aggregates as a run — sorted by
// group key, so a partial has one (deterministic) encoding. Both
// transports exchange this one struct, so the coordinator's merge is
// transport-independent.
type Response struct {
	Agg kernel.Aggregate
	// Grouped distinguishes "grouped query, zero matching groups" from an
	// ungrouped execution (both carry no groups).
	Grouped bool
	Groups  []kernel.Group

	// Epoch and DeltaRows report the node snapshot the partial was served
	// from; Engine and IO carry the node's work/physical-I/O counters for
	// the coordinator's unified stats.
	Epoch     int64
	DeltaRows int64
	Engine    kernel.Stats
	IO        storage.IOStats
	// Shared reports the node-side shared-scan batching effect on this
	// sub-request (zero unless the node was built with a SharedWindow).
	Shared kernel.SharedScanStats
}

// NodeStats is one node's serving snapshot, fetched over the transport.
type NodeStats struct {
	// Index is the node's position in the cluster placement.
	Index int
	// Counters holds the node's serving epoch, live delta set and
	// ingestion activity since it was built — the store's own struct.
	epoch.Counters
	// Queries counts Exec requests served (including failed ones).
	Queries int64
	// Failed reports a killed node (see Node.Fail).
	Failed bool
	// Sched is the accounting of the pool the node runs on; in-process
	// nodes share the warehouse's.
	Sched exec.SchedStats
}

// Transport carries the coordinator's sub-requests to the numbered
// nodes. Implementations must be safe for concurrent use; errors that
// mean "the request may not have reached the node" must wrap
// ErrUnavailable (they are the only errors the coordinator retries).
type Transport interface {
	// Nodes returns the node count the transport serves.
	Nodes() int
	// Exec runs one sub-query on the node and returns its partial.
	Exec(ctx context.Context, node int, req Request) (Response, error)
	// Append ingests rows (all owned by the node) into the node's deltas.
	Append(ctx context.Context, node int, rows []Row) error
	// Compact folds the node's sealed deltas into its next epoch.
	Compact(ctx context.Context, node int) error
	// Stats snapshots the node's serving counters.
	Stats(ctx context.Context, node int) (NodeStats, error)
	// Close releases the transport (not the nodes behind it).
	Close() error
}

// Local is the in-process transport: direct method calls on a []*Node,
// with no encoding and no sockets — the deterministic harness the
// equivalence matrix runs under -race, and the oracle the real transport
// is checked against (both exchange the identical Response struct, so a
// divergence isolates to the wire codec).
type Local struct {
	nodes []*Node
}

// NewLocal wraps the nodes in an in-process transport.
func NewLocal(nodes []*Node) *Local { return &Local{nodes: nodes} }

// Nodes returns the node count.
func (l *Local) Nodes() int { return len(l.nodes) }

// Exec runs the sub-query directly on the node.
func (l *Local) Exec(ctx context.Context, node int, req Request) (Response, error) {
	return l.nodes[node].Exec(ctx, req)
}

// Append ingests the rows directly on the node.
func (l *Local) Append(ctx context.Context, node int, rows []Row) error {
	return l.nodes[node].Append(ctx, rows)
}

// Compact compacts the node synchronously.
func (l *Local) Compact(ctx context.Context, node int) error {
	return l.nodes[node].Compact(ctx)
}

// Stats snapshots the node's counters.
func (l *Local) Stats(ctx context.Context, node int) (NodeStats, error) {
	return l.nodes[node].Stats(), ctx.Err()
}

// Close is a no-op: the nodes' owner closes them.
func (l *Local) Close() error { return nil }
