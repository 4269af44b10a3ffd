package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/storage"
)

// CoordinatorConfig configures query planning and the client-side fault
// machinery.
type CoordinatorConfig struct {
	// Spec is the fragmentation the whole cluster shares.
	Spec *frag.Spec
	// Cluster is the node-level placement (Disks = node count); its
	// scheme decides which node owns which fragment, exactly as the
	// disk-level placement decides disks within a node.
	Cluster alloc.Placement
	// Retry bounds transport-level (ErrUnavailable) retries per
	// sub-request; zero fields take storage.DefaultRetryPolicy values.
	// The breaker fields drive the per-node circuit breaker.
	Retry storage.RetryPolicy
	// Hedge, when positive, launches a second identical sub-request if a
	// node has not answered within the duration; the first answer wins.
	// Leave zero for deterministic tests (a hedge pair may pin different
	// epochs on a node ingesting concurrently).
	Hedge time.Duration
}

// ClientStats is the coordinator's own accounting for one node — the
// client half of the picture (NodeStats is the server half).
type ClientStats struct {
	// Queries counts sub-requests planned onto the node (before breaker
	// or transport outcomes).
	Queries int64
	// Errors counts sub-requests that failed after retries/hedging.
	Errors int64
	// Retries counts transport-level re-sends (ErrUnavailable only).
	Retries int64
	// Hedges and HedgeWins count straggler hedges launched and hedges
	// whose duplicate answered first.
	Hedges    int64
	HedgeWins int64
	// FastFails counts sub-requests rejected locally by an open breaker.
	FastFails int64
	// BreakerTrips counts times the node's breaker opened.
	BreakerTrips int64
}

// ExecStats describes one scattered execution.
type ExecStats struct {
	// NodesUsed is how many nodes the query was scattered to (confined
	// queries touch a subset of the cluster).
	NodesUsed int
	// DeltaRows, Engine and IO aggregate the per-node partial stats.
	DeltaRows int64
	Engine    kernel.Stats
	IO        storage.IOStats
	// Retries and Hedges count this execution's transport re-sends and
	// straggler hedges.
	Retries int64
	Hedges  int64
	// Shared aggregates the nodes' shared-scan batching effect (Batched
	// is the largest node-side batch this execution rode in).
	Shared kernel.SharedScanStats
}

type nodeCounters struct {
	queries   atomic.Int64
	errors    atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	fastFails atomic.Int64
}

// Coordinator plans star queries against the cluster placement,
// scatters per-node sub-queries over the transport, and merges the
// returned partials through the shared kernel grouper. It is safe for
// concurrent use.
type Coordinator struct {
	spec     *frag.Spec
	cl       alloc.Placement
	tr       Transport
	retry    storage.RetryPolicy
	hedge    time.Duration
	breakers []*breaker
	counters []nodeCounters
}

// NewCoordinator validates the placement against the transport's node
// count and returns a coordinator.
func NewCoordinator(cfg CoordinatorConfig, tr Transport) (*Coordinator, error) {
	if cfg.Spec == nil {
		return nil, errors.New("cluster: nil fragmentation spec")
	}
	n := cfg.Cluster.Disks
	if n < 1 {
		n = 1
	}
	if tr.Nodes() != n {
		return nil, fmt.Errorf("cluster: placement has %d nodes but transport serves %d", n, tr.Nodes())
	}
	p := cfg.Retry.Normalize()
	c := &Coordinator{
		spec:     cfg.Spec,
		cl:       cfg.Cluster,
		tr:       tr,
		retry:    p,
		hedge:    cfg.Hedge,
		breakers: make([]*breaker, n),
		counters: make([]nodeCounters, n),
	}
	for i := range c.breakers {
		c.breakers[i] = newBreaker(p.BreakerThreshold, p.BreakerCooldown)
	}
	return c, nil
}

// relevantNodes returns, in ascending order, the nodes owning at least
// one fragment relevant to the query. Enumeration stops early once every
// node is marked.
func (c *Coordinator) relevantNodes(q frag.Query) []int {
	n := len(c.counters)
	if n == 1 {
		return []int{0}
	}
	hit := make([]bool, n)
	left := n
	c.spec.ForEachFragment(q, func(id int64, _ []int) bool {
		k := NodeOf(c.cl, id)
		if !hit[k] {
			hit[k] = true
			left--
		}
		return left > 0
	})
	nodes := make([]int, 0, n-left)
	for k, h := range hit {
		if h {
			nodes = append(nodes, k)
		}
	}
	return nodes
}

// Execute scatters the query to its relevant nodes, gathers the
// partials in node order, merges their runs and flattens them through
// the shared grouper — so the result is byte-identical to a single node
// holding all the rows. Any node failing (after retries, or fast via its
// breaker) fails the query with a NodeError naming it.
func (c *Coordinator) Execute(ctx context.Context, q frag.Query) (kernel.Result, ExecStats, error) {
	star := c.spec.Star()
	if err := q.Validate(star); err != nil {
		return kernel.Result{}, ExecStats{}, err
	}
	gr, err := kernel.NewGrouper(star, c.spec, q.GroupBy)
	if err != nil {
		return kernel.Result{}, ExecStats{}, err
	}
	nodes := c.relevantNodes(q)
	req := Request{Preds: q.Preds, GroupBy: q.GroupBy}
	type part struct {
		resp            Response
		retries, hedges int64
		err             error
	}
	parts := make([]part, len(nodes))
	scatter(len(nodes), func(i int) {
		p := &parts[i]
		p.resp, p.retries, p.hedges, p.err = c.execNode(ctx, nodes[i], req)
	})
	var (
		agg kernel.Aggregate
		run []kernel.Group
		st  = ExecStats{NodesUsed: len(nodes)}
	)
	for _, p := range parts {
		if p.err != nil {
			return kernel.Result{}, ExecStats{}, p.err // the first in node order
		}
		agg.Add(p.resp.Agg)
		run = kernel.MergeRuns(run, p.resp.Groups)
		st.DeltaRows += p.resp.DeltaRows
		st.Engine.Add(p.resp.Engine)
		st.IO.Add(p.resp.IO)
		st.Retries += p.retries
		st.Hedges += p.hedges
		st.Shared.Add(p.resp.Shared)
	}
	res := kernel.Result{Aggregate: agg}
	if gr != nil {
		res.Groups = gr.Rows(run)
	}
	return res, st, nil
}

// scatter runs fn(k) for k in [0, n), one call per node, each keeping its
// own result: a lone one on the caller, more on a goroutine each. A call
// only waits on a node, whose work runs on a pool or the wire; on a pool
// it would hold a worker the node needs, at one worker a deadlock.
func scatter(n int, fn func(k int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for k := range n {
		go func() {
			defer wg.Done()
			fn(k)
		}()
	}
	wg.Wait()
}

// nodeErr names node k in err unless a NodeError already does.
func nodeErr(k int, err error) error {
	var ne *NodeError
	if err == nil || errors.As(err, &ne) {
		return err
	}
	return &NodeError{Node: k, Err: err}
}

// execNode runs one node's sub-request through breaker, hedging and the
// retry loop, and keeps the per-node client counters.
func (c *Coordinator) execNode(ctx context.Context, k int, req Request) (Response, int64, int64, error) {
	cnt := &c.counters[k]
	cnt.queries.Add(1)
	brk := c.breakers[k]
	if !brk.allow(time.Now()) {
		cnt.fastFails.Add(1)
		cnt.errors.Add(1)
		return Response{}, 0, 0, &NodeError{Node: k, Err: ErrBreakerOpen}
	}
	resp, retries, hedges, err := c.execHedged(ctx, k, req)
	if retries > 0 {
		cnt.retries.Add(retries)
	}
	if err != nil {
		cnt.errors.Add(1)
		brk.failure(time.Now())
		return Response{}, retries, hedges, nodeErr(k, err)
	}
	brk.success()
	return resp, retries, hedges, nil
}

// execHedged wraps execRetry with straggler hedging: if the first
// attempt has not answered within c.hedge, a duplicate is launched and
// the first answer wins. Reads are idempotent, so a duplicate is always
// safe; a hedge pair may observe different epochs on a node ingesting
// concurrently, which is why deterministic tests leave Hedge zero.
func (c *Coordinator) execHedged(ctx context.Context, k int, req Request) (Response, int64, int64, error) {
	if c.hedge <= 0 {
		resp, retries, err := c.execRetry(ctx, k, req)
		return resp, retries, 0, err
	}
	type attempt struct {
		idx     int
		resp    Response
		retries int64
		err     error
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan attempt, 2)
	launch := func(idx int) {
		go func() {
			resp, retries, err := c.execRetry(hctx, k, req)
			ch <- attempt{idx, resp, retries, err}
		}()
	}
	launch(0)
	timer := time.NewTimer(c.hedge)
	defer timer.Stop()
	var (
		retries     int64
		hedges      int64
		outstanding = 1
		firstErr    error
	)
	for {
		select {
		case at := <-ch:
			outstanding--
			retries += at.retries
			if at.err == nil {
				if at.idx == 1 {
					c.counters[k].hedgeWins.Add(1)
				}
				return at.resp, retries, hedges, nil
			}
			if firstErr == nil {
				firstErr = at.err
			}
			if outstanding == 0 {
				return Response{}, retries, hedges, firstErr
			}
		case <-timer.C:
			if hedges == 0 && outstanding > 0 {
				hedges++
				c.counters[k].hedges.Add(1)
				outstanding++
				launch(1)
			}
		}
	}
}

// execRetry sends the sub-request, retrying only transport-level
// ErrUnavailable failures under the retry policy (exponential backoff,
// capped). Node-side errors — a failed node, admission shedding, an
// execution error — are returned as-is: the node saw the request, so
// re-sending cannot help.
func (c *Coordinator) execRetry(ctx context.Context, k int, req Request) (Response, int64, error) {
	var retries int64
	backoff := c.retry.BaseBackoff
	for attempt := 1; ; attempt++ {
		resp, err := c.tr.Exec(ctx, k, req)
		if err == nil {
			return resp, retries, nil
		}
		if !errors.Is(err, ErrUnavailable) || attempt >= c.retry.MaxAttempts {
			return Response{}, retries, err
		}
		retries++
		select {
		case <-ctx.Done():
			return Response{}, retries, ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > c.retry.MaxBackoff {
			backoff = c.retry.MaxBackoff
		}
	}
}

// Append routes each row to the node owning its fragment and fans the
// per-node batches out in parallel — the single-writer-per-fragment
// invariant: one node, and only that node, ever appends a given
// fragment's rows. Appends are not retried (a re-send could duplicate
// rows on a node that ingested the batch but lost the ack); a failed
// node's batch fails the call with a NodeError while other nodes'
// batches still land.
func (c *Coordinator) Append(ctx context.Context, rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	star := c.spec.Star()
	parts := make([][]Row, len(c.counters))
	buf := make([]int, len(star.Dims))
	for ri, r := range rows {
		if err := data.CheckLeaves(star, r.Leaves); err != nil {
			return fmt.Errorf("cluster: append row %d: %w", ri, err)
		}
		for d, leaf := range r.Leaves {
			buf[d] = int(leaf)
		}
		id := c.spec.IDOf(buf)
		k := NodeOf(c.cl, id)
		parts[k] = append(parts[k], r)
	}
	errs := make([]error, len(parts))
	scatter(len(parts), func(k int) {
		if len(parts[k]) > 0 {
			errs[k] = nodeErr(k, c.tr.Append(ctx, k, parts[k]))
		}
	})
	return errors.Join(errs...)
}

// Compact fans compaction out to every node in parallel and joins any
// failures in node order.
func (c *Coordinator) Compact(ctx context.Context) error {
	errs := make([]error, len(c.counters))
	scatter(len(errs), func(k int) { errs[k] = nodeErr(k, c.tr.Compact(ctx, k)) })
	return errors.Join(errs...)
}

// NodeStats fetches every node's serving snapshot over the transport.
// A node that cannot answer gets a zero snapshot with only its index
// set, and the nodes' errors are joined in node order beside the slice.
func (c *Coordinator) NodeStats(ctx context.Context) ([]NodeStats, error) {
	out := make([]NodeStats, len(c.counters))
	errs := make([]error, len(out))
	scatter(len(out), func(k int) {
		var err error
		if out[k], err = c.tr.Stats(ctx, k); err != nil {
			out[k], errs[k] = NodeStats{Index: k}, nodeErr(k, err)
		}
	})
	return out, errors.Join(errs...)
}

// ClientStats snapshots the coordinator's per-node client counters.
func (c *Coordinator) ClientStats() []ClientStats {
	out := make([]ClientStats, len(c.counters))
	for k := range out {
		cnt := &c.counters[k]
		out[k] = ClientStats{
			Queries:      cnt.queries.Load(),
			Errors:       cnt.errors.Load(),
			Retries:      cnt.retries.Load(),
			Hedges:       cnt.hedges.Load(),
			HedgeWins:    cnt.hedgeWins.Load(),
			FastFails:    cnt.fastFails.Load(),
			BreakerTrips: c.breakers[k].tripCount(),
		}
	}
	return out
}

// Close releases the transport (not the nodes behind it).
func (c *Coordinator) Close() error { return c.tr.Close() }
