package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/exec"
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

// Nodes returns the cluster's node count.
func (c *Coordinator) Nodes() int { return len(c.counters) }

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
// partials in node order, and flattens groups through the shared
// grouper — so the result is byte-identical to a single node holding
// all the rows. Any node failing (after retries, or fast via its
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
		resp    Response
		retries int64
		hedges  int64
	}
	type acc struct {
		agg kernel.Aggregate
		g   *kernel.Grouped
		st  ExecStats
	}
	a, err := exec.Reduce(ctx, len(nodes), len(nodes),
		func(i int) (part, error) {
			resp, retries, hedges, err := c.execNode(ctx, nodes[i], req)
			return part{resp, retries, hedges}, err
		},
		func(a *acc, p part) {
			a.agg.Add(p.resp.Agg)
			if p.resp.Grouped {
				if a.g == nil {
					a.g = kernel.NewGrouped()
				}
				for _, g := range p.resp.Groups {
					a.g.Add(g.Key, g.Agg)
				}
			}
			a.st.DeltaRows += p.resp.DeltaRows
			a.st.Engine.Add(p.resp.Engine)
			a.st.IO.Add(p.resp.IO)
			a.st.Retries += p.retries
			a.st.Hedges += p.hedges
			a.st.Shared.Add(p.resp.Shared)
		})
	if err != nil {
		return kernel.Result{}, ExecStats{}, err
	}
	a.st.NodesUsed = len(nodes)
	res := kernel.Result{Aggregate: a.agg}
	if gr != nil {
		res.Groups = gr.Rows(a.g)
	}
	return res, a.st, nil
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
		var ne *NodeError
		if !errors.As(err, &ne) {
			err = &NodeError{Node: k, Err: err}
		}
		return Response{}, retries, hedges, err
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
		if len(r.Leaves) != len(star.Dims) {
			return fmt.Errorf("cluster: append row %d: %d leaves for %d dimensions", ri, len(r.Leaves), len(star.Dims))
		}
		for d, leaf := range r.Leaves {
			if leaf < 0 || int(leaf) >= star.Dims[d].LeafCard() {
				return fmt.Errorf("cluster: append row %d: %s leaf %d out of range [0,%d)", ri, star.Dims[d].Name, leaf, star.Dims[d].LeafCard())
			}
			buf[d] = int(leaf)
		}
		id := c.spec.IDOf(buf)
		k := NodeOf(c.cl, id)
		parts[k] = append(parts[k], r)
	}
	// Fan out on the shared exec helper. Per-node failures come back as
	// values, not task errors: exec.Map aborts remaining tasks on the
	// first task error, but every node's batch must still land even when
	// one node fails.
	errs, err := exec.Map(ctx, len(parts), len(parts), func(k int) (error, error) {
		if len(parts[k]) == 0 {
			return nil, nil
		}
		if err := c.tr.Append(ctx, k, parts[k]); err != nil {
			var ne *NodeError
			if !errors.As(err, &ne) {
				err = &NodeError{Node: k, Err: err}
			}
			return err, nil
		}
		return nil, nil
	})
	if err != nil {
		return err // ctx cancellation: nothing was gathered
	}
	return errors.Join(errs...)
}

// Compact fans compaction out to every node in parallel and joins any
// failures in node order.
func (c *Coordinator) Compact(ctx context.Context) error {
	// Per-node failures return as values so every node still compacts
	// (exec.Map would abort remaining tasks on a task error).
	errs, err := exec.Map(ctx, len(c.counters), len(c.counters), func(k int) (error, error) {
		if err := c.tr.Compact(ctx, k); err != nil {
			var ne *NodeError
			if !errors.As(err, &ne) {
				err = &NodeError{Node: k, Err: err}
			}
			return err, nil
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	return errors.Join(errs...)
}

// NodeStats fetches every node's serving snapshot over the transport.
// A node that cannot answer gets a zero snapshot with only its index
// set, and the first such error is returned alongside the slice.
func (c *Coordinator) NodeStats(ctx context.Context) ([]NodeStats, error) {
	type nodeStat struct {
		st  NodeStats
		err error
	}
	parts, err := exec.Map(ctx, len(c.counters), len(c.counters), func(k int) (nodeStat, error) {
		st, err := c.tr.Stats(ctx, k)
		if err != nil {
			return nodeStat{st: NodeStats{Index: k}, err: &NodeError{Node: k, Err: err}}, nil
		}
		return nodeStat{st: st}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]NodeStats, len(parts))
	errs := make([]error, len(parts))
	for k, p := range parts {
		out[k], errs[k] = p.st, p.err
	}
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
