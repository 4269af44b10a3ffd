package mdhf

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// clusterOracle executes every ingest query on a plain single-node
// Warehouse over the given rows — the reference every cluster result
// must match byte-identically.
func clusterOracle(t *testing.T, star *Star, tab *FactTable) []Result {
	t.Helper()
	ctx := context.Background()
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Table: tab})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	out := make([]Result, len(ingestQueries))
	for i, text := range ingestQueries {
		pq, err := w.QueryText(text)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := pq.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// checkCluster runs every ingest query on a warehouse over the given
// node count and compares each result to the oracle's. A node count of
// one is a plain single store.
func checkCluster(t *testing.T, c *Warehouse, nodes int, want []Result, leg string) {
	t.Helper()
	ctx := context.Background()
	for i, text := range ingestQueries {
		cq, err := c.QueryText(text)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := cq.Execute(ctx)
		if err != nil {
			t.Fatalf("%s: query %q: %v", leg, text, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: query %q: cluster %+v != warehouse %+v", leg, text, got, want[i])
		}
		if nodes == 1 {
			if st.Backend == ClusterBackend || st.Cluster != nil {
				t.Fatalf("%s: one node served by %v with fan-out %+v, want the single store", leg, st.Backend, st.Cluster)
			}
			continue
		}
		if st.Backend != ClusterBackend {
			t.Fatalf("%s: backend %v", leg, st.Backend)
		}
		if st.Cluster == nil || st.Cluster.NodesUsed < 1 || st.Cluster.NodesUsed > nodes {
			t.Fatalf("%s: query %q: bad fan-out stats %+v", leg, text, st.Cluster)
		}
	}
}

// TestClusterEquivalenceMatrix is the acceptance matrix: every ingest
// query (Q1-Q4, grouped and ungrouped) over node counts 1/2/4/8 and both
// ownership schemes, with appends mid-flight (awaited), a compaction
// leg, and an injected node fault — byte-identical to a single Warehouse
// over the same rows throughout. WithNodes(1) is that single store
// itself, which has no node to fail. Run with -race.
func TestClusterEquivalenceMatrix(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	full := MustGenerateData(star, 8)
	n := full.N()
	base := prefixTable(full, n*2/3)
	extra := splitRows(full, n*2/3, n)
	wantBase := clusterOracle(t, star, base)
	wantFull := clusterOracle(t, star, full)

	for _, scheme := range []AllocScheme{RoundRobin, GapRoundRobin} {
		for _, nodes := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("scheme=%v/nodes=%d", scheme, nodes), func(t *testing.T) {
				c, err := Open(ctx,
					Config{Star: star, Fragmentation: "time::month, product::group", Table: base},
					WithNodes(nodes, scheme))
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()

				checkCluster(t, c, nodes, wantBase, "base")
				if err := c.Append(ctx, extra); err != nil {
					t.Fatal(err)
				}
				checkCluster(t, c, nodes, wantFull, "appended")
				if err := c.Compact(ctx); err != nil {
					t.Fatal(err)
				}
				checkCluster(t, c, nodes, wantFull, "compacted")

				// Injected fault: a cluster-wide query fails with a typed
				// NodeError naming the victim; never a wrong answer.
				victim := nodes - 1
				if nodes == 1 {
					if err := c.FailNode(victim); err == nil {
						t.Fatal("FailNode on a single store should error")
					}
					return
				}
				if err := c.FailNode(victim); err != nil {
					t.Fatal(err)
				}
				cq, err := c.QueryText("")
				if err != nil {
					t.Fatal(err)
				}
				_, _, err = cq.Execute(ctx)
				if !errors.Is(err, ErrNodeFailed) {
					t.Fatalf("failed node: got %v, want ErrNodeFailed", err)
				}
				var ne *NodeError
				if !errors.As(err, &ne) || ne.Node != victim {
					t.Fatalf("error does not name node %d: %v", victim, err)
				}
				if err := c.ReviveNode(victim); err != nil {
					t.Fatal(err)
				}
				checkCluster(t, c, nodes, wantFull, "revived")
			})
		}
	}
}

// TestClusterHTTPFacade runs the facade over real loopback HTTP servers
// (WithNodeAddrs) and checks equivalence plus append routing — the real-
// transport leg of the matrix. Short-mode friendly: loopback only.
func TestClusterHTTPFacade(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	full := MustGenerateData(star, 8)
	n := full.N()
	base := prefixTable(full, n*2/3)
	extra := splitRows(full, n*2/3, n)
	wantBase := clusterOracle(t, star, base)
	wantFull := clusterOracle(t, star, full)

	const nodes = 4
	spec, err := ParseFragmentation(star, "time::month, product::group")
	if err != nil {
		t.Fatal(err)
	}
	cl := Placement{Disks: nodes, Scheme: GapRoundRobin}
	shards := PartitionFactTable(spec, cl, base)
	addrs := make([]string, nodes)
	for k := 0; k < nodes; k++ {
		node, err := NewClusterNode(ClusterNodeConfig{
			Spec: spec, Indexes: APB1Indexes(star), Index: k, Cluster: cl,
		}, shards[k])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		srv := httptest.NewServer(NewNodeHandler(node))
		t.Cleanup(srv.Close)
		addrs[k] = srv.URL
	}

	c, err := Open(ctx,
		Config{Star: star, Fragmentation: "time::month, product::group"},
		WithNodes(nodes, GapRoundRobin), WithNodeAddrs(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	checkCluster(t, c, nodes, wantBase, "http/base")
	if err := c.Append(ctx, extra); err != nil {
		t.Fatal(err)
	}
	checkCluster(t, c, nodes, wantFull, "http/appended")
	if err := c.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	checkCluster(t, c, nodes, wantFull, "http/compacted")

	st, err := c.NodeStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != nodes || len(st.Client) != nodes {
		t.Fatalf("stats for %d/%d nodes, want %d", len(st.Nodes), len(st.Client), nodes)
	}
	var appended, queries int64
	for k, ns := range st.Nodes {
		if ns.Index != k {
			t.Errorf("node %d reports index %d", k, ns.Index)
		}
		appended += ns.AppendedRows
		queries += ns.Queries
		if ns.Compactions < 1 {
			t.Errorf("node %d: no compactions recorded", k)
		}
	}
	if appended != int64(len(extra)) {
		t.Errorf("cluster-wide AppendedRows = %d, want %d", appended, len(extra))
	}
	if queries == 0 {
		t.Error("no node-side query counters")
	}
	// FailNode is an in-process affordance; over HTTP it must refuse.
	if err := c.FailNode(0); err == nil {
		t.Error("FailNode over WithNodeAddrs should error")
	}
}

// TestClusterServingStats checks the local facade's cluster-wide
// counters: per-node queries and ingestion on the owning nodes only, and
// the coordinator's client-side accounting.
func TestClusterServingStats(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	c, err := Open(ctx,
		Config{Star: star, Fragmentation: "time::month, product::group", Table: tab},
		WithNodes(4, RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cq, err := c.QueryText("")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cq.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	rows := splitRows(tab, 0, 3)
	if err := c.Append(ctx, rows); err != nil {
		t.Fatal(err)
	}
	st, err := c.NodeStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var queries, appended, clientQueries int64
	for _, ns := range st.Nodes {
		queries += ns.Queries
		appended += ns.AppendedRows
	}
	for _, cs := range st.Client {
		clientQueries += cs.Queries
	}
	if queries != 4 {
		t.Errorf("node-side Queries = %d, want 4 (cluster-wide scatter)", queries)
	}
	if clientQueries != 4 {
		t.Errorf("client-side Queries = %d, want 4", clientQueries)
	}
	if appended != 3 {
		t.Errorf("AppendedRows = %d, want 3", appended)
	}
}

// TestClusterExplainNodeBottleneck is the response-model fix: with more
// than one node the modelled queues are two-tier (node-major
// node×disk), the reported bottleneck is a node's own deepest disk, and
// the response never benefits from pooling disks across nodes.
func TestClusterExplainNodeBottleneck(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	open := func(nodes, disks int) *Warehouse {
		c, err := Open(ctx,
			Config{Star: star, Fragmentation: "time::month, product::group"},
			WithNodes(nodes, RoundRobin), WithDisks(disks, RoundRobin))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	explain := func(c *Warehouse, text string) Explain {
		cq, err := c.QueryText(text)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := cq.Explain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}

	const q = "time::quarter=1 group by product::group"
	four := explain(open(4, 2), q)
	if four.Response.Nodes != 4 {
		t.Fatalf("Nodes = %d, want 4", four.Response.Nodes)
	}
	if got, want := len(four.Response.DiskIOs), 4*2; got != want {
		t.Fatalf("%d disk queues, want %d (node-major node x disk)", got, want)
	}
	if len(four.Response.NodeIOs) != 4 {
		t.Fatalf("NodeIOs over %d nodes, want 4", len(four.Response.NodeIOs))
	}
	bn := four.Response.BottleneckNode
	if bn < 0 || bn >= 4 {
		t.Fatalf("BottleneckNode = %d out of range", bn)
	}
	if four.Response.NodeIOs[bn] == 0 {
		t.Fatal("bottleneck node received no I/O")
	}

	// The node-bottleneck response is never better than a hypothetical
	// global pool of the same nodes*disks queues would allow: 8 queues
	// on one node lower-bounds 4 nodes x 2 disks.
	pooled := explain(open(1, 8), q)
	if four.Response.Response < pooled.Response.Response {
		t.Errorf("4x2 response %v beats pooled 1x8 %v; node bottleneck must not pool across nodes",
			four.Response.Response, pooled.Response.Response)
	}
	if pooled.Response.Nodes != 1 || pooled.Response.NodesUsed != 1 {
		t.Errorf("single node models %d/%d nodes", pooled.Response.Nodes, pooled.Response.NodesUsed)
	}
}

// TestFacadesRejectUnhonoredOptions: Open refuses, by name, exactly the
// two combinations it cannot honor — a result cache over many nodes and
// hedging without nodes — and accepts every option the two façades once
// refused each other.
func TestFacadesRejectUnhonoredOptions(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: MustGenerateData(star, 8)}
	nodes := WithNodes(2, RoundRobin)
	for _, tc := range []struct {
		name    string
		opts    []Option
		refused bool
	}{
		{"WithResultCache", []Option{nodes, WithResultCache(16)}, true},
		{"WithHedgedRequests", []Option{WithHedgedRequests(time.Millisecond)}, true},
		{"WithBufferPool", []Option{nodes, WithBufferPool(1 << 20)}, false},
		{"WithAutoCompaction", []Option{nodes, WithAutoCompaction(64)}, false},
		{"WithNodes", []Option{nodes}, false},
		{"WithNodeAddrs", []Option{WithNodeAddrs("http://127.0.0.1:1")}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := Open(ctx, cfg, tc.opts...)
			if err == nil {
				w.Close()
			}
			if !tc.refused {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.name) {
				t.Fatalf("err = %v, want one naming %s", err, tc.name)
			}
		})
	}
	// A node count must match the addresses it names, above and below.
	addrs := WithNodeAddrs("http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3")
	for _, n := range []int{2, 5} {
		if w, err := Open(ctx, cfg, WithNodes(n, RoundRobin), addrs); err == nil {
			w.Close()
			t.Errorf("WithNodes(%d) over 3 addresses accepted", n)
		}
	}
}

// TestMultiNodeHonorsPoolAndAutoCompaction: WithBufferPool and
// WithAutoCompaction reach every in-process node, which pools its reads
// and compacts its own deltas, and every answer stays the oracle's.
func TestMultiNodeHonorsPoolAndAutoCompaction(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	full := MustGenerateData(star, 8)
	n := full.N()
	base := prefixTable(full, n*2/3)
	extra := splitRows(full, n*2/3, n)
	wantBase := clusterOracle(t, star, base)
	wantFull := clusterOracle(t, star, full)

	const nodes = 3
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Table: base},
		WithNodes(nodes, RoundRobin), WithOnDisk(t.TempDir()), WithBufferPool(1<<20), WithAutoCompaction(1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	checkCluster(t, w, nodes, wantBase, "base")
	var hits int64
	for _, text := range ingestQueries {
		pq, err := w.QueryText(text)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := pq.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		hits += st.IO.PoolHits
	}
	if hits == 0 {
		t.Error("no buffer-pool hit on a repeated query mix: the nodes have no pool")
	}
	if err := w.Append(ctx, extra); err != nil {
		t.Fatal(err)
	}
	checkCluster(t, w, nodes, wantFull, "appended")
	var compactions int64
	for deadline := time.Now().Add(10 * time.Second); compactions == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		st, err := w.NodeStats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, ns := range st.Nodes {
			compactions += ns.Compactions
		}
	}
	if compactions == 0 {
		t.Fatal("no node compacted past its auto-compaction threshold")
	}
	checkCluster(t, w, nodes, wantFull, "auto-compacted")
}

// TestMultiNodeCloseRacesExecute: Close drains the queries in flight on
// a multi-node warehouse before it closes the nodes, so a query racing
// Close returns its result or ErrClosed — never a closed node's error —
// and nothing races.
func TestMultiNodeCloseRacesExecute(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	want := clusterOracle(t, star, tab)[0]
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Table: tab},
		WithNodes(2, RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := w.QueryText(ingestQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pq.Execute(ctx); err != nil { // build before the race
		t.Fatal(err)
	}
	var wg, running sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				got, _, err := pq.Execute(ctx)
				if i == 0 {
					running.Done()
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				if err == nil && !reflect.DeepEqual(got, want) {
					err = fmt.Errorf("result %+v != %+v", got, want)
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	running.Wait() // every goroutine is in its query loop
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
