// Package cluster is the multi-node declustered serving layer: the same
// placement math the paper uses to decluster MDHF fragments over D disks
// (Section 4.6, Figure 2), applied one level up to shard fragments over
// N nodes. A Node wraps one node's shard — an in-memory engine or an
// on-disk storage.Backend plus snapshot pinning and delta ingestion, on
// an admission-bounded pool (a node process's own, or the one its
// warehouse shares over in-process nodes) — and serves fragment-range
// partials; a Coordinator plans a query against the cluster-level
// alloc.Placement, scatters per-node sub-queries over a Transport, and
// merges the returned partials in node order. Per-key aggregate
// addition commutes and the nodes' fragment ranges are disjoint, so the
// merged result — flattened through the shared kernel.Grouper — is
// byte-identical to a single node holding the union of the rows, at any
// node count, either placement scheme, and on either transport.
//
// Two transports implement the one Transport interface: Local, an
// in-process harness over a []*Node used for deterministic -race
// equivalence testing (the same oracle discipline as storage.DiskSet),
// and HTTPTransport, a real loopback/network transport exchanging
// binary-framed partials, with per-node retry/backoff (reusing the storage
// RetryPolicy shape), a per-node circuit breaker and hedged straggler
// requests in the Coordinator.
//
// Writes follow the single-writer-per-fragment invariant: every
// fragment id is owned by exactly one node (NodeOf), Coordinator.Append
// routes each row to its owning node, and a Node rejects rows for
// fragments it does not own — so no fragment's delta chain is ever
// written from two places and per-fragment row order stays the
// deterministic arrival order compaction and queries both rely on.
package cluster

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/epoch"
	"repro/internal/frag"
	"repro/internal/kernel"
)

// ErrNodeFailed is the terminal error of a node that was killed (see
// Node.Fail): requests fail fast without touching the backend until the
// node is revived.
var ErrNodeFailed = errors.New("cluster: node failed")

// ErrUnavailable marks a transport-level failure (connection refused,
// request not delivered): the request may never have reached the node,
// so the coordinator retries it under its RetryPolicy. Node-side errors
// are never wrapped in it and are not retried.
var ErrUnavailable = errors.New("cluster: node unavailable")

// ErrBreakerOpen is returned by the coordinator for a node whose circuit
// breaker is open: the request failed fast without a network round trip.
var ErrBreakerOpen = errors.New("cluster: node circuit breaker open")

// NodeError wraps any failure of one node's sub-request with the node
// index; unwrap with errors.As / errors.Is.
type NodeError struct {
	Node int
	Err  error
}

func (e *NodeError) Error() string {
	return fmt.Sprintf("cluster: node %d: %v", e.Node, e.Err)
}

func (e *NodeError) Unwrap() error { return e.Err }

// Row is one incoming fact row — the store's own row type, shipped by
// both transports.
type Row = epoch.Row

// NodeOf returns the node owning fragment id under the cluster-level
// placement — the single writer (and the only server) of that
// fragment's rows.
func NodeOf(cl alloc.Placement, id int64) int {
	if cl.Disks <= 1 {
		return 0
	}
	return cl.FactDisk(id)
}

// PartitionTable splits a fact table into one shard per node, cut from
// the table's one partition (kernel.NewPartition): a shard holds the
// fragments its node owns in id order, each fragment's rows in input
// order, so a shard rebuilt elsewhere serves deterministic results.
// Shards share the input's *schema.Star (engines and stores check schema
// identity by pointer).
func PartitionTable(spec *frag.Spec, cl alloc.Placement, t *data.Table) []*data.Table {
	p := kernel.NewPartition(spec, t)
	parts := make([]*data.Table, max(cl.Disks, 1))
	for n := range parts {
		parts[n] = &data.Table{Star: t.Star, Dims: make([][]int32, len(t.Dims))}
	}
	for k, id := range p.IDs {
		f, s := p.Fragment(k), parts[NodeOf(cl, id)]
		for d := range s.Dims {
			s.Dims[d] = append(s.Dims[d], f.Dims[d]...)
		}
		s.UnitsSold = append(s.UnitsSold, f.Units...)
		s.DollarSales = append(s.DollarSales, f.Dollars...)
		s.Cost = append(s.Cost, f.Costs...)
	}
	return parts
}
