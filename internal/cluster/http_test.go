package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/alloc"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/storage"
)

// buildHTTPCluster serves each shard from a loopback httptest server and
// returns a coordinator over the real HTTP transport, plus the in-process
// nodes behind the servers (for Fail/Revive).
func buildHTTPCluster(t *testing.T, n int, scheme alloc.Scheme) (*Coordinator, []*Node) {
	t.Helper()
	_, spec, icfg, tab, _ := clusterFixture(t)
	cl := alloc.Placement{Disks: n, Scheme: scheme}
	parts := PartitionTable(spec, cl, tab)
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for k := range nodes {
		node, err := NewNode(NodeConfig{Spec: spec, Indexes: icfg, Index: k, Cluster: cl}, parts[k])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[k] = node
		srv := httptest.NewServer(NewNodeHandler(node))
		t.Cleanup(srv.Close)
		addrs[k] = srv.URL
	}
	tr, err := NewHTTPTransport(addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, Cluster: cl}, tr)
	if err != nil {
		t.Fatal(err)
	}
	return coord, nodes
}

// TestHTTPLoopbackEquivalence runs the query list through real HTTP
// servers and checks the results byte-identical to the brute-force scan
// — the wire codec leg of the equivalence matrix. Runs in short mode:
// loopback servers, no real network latency.
func TestHTTPLoopbackEquivalence(t *testing.T) {
	_, _, _, tab, qs := clusterFixture(t)
	coord, _ := buildHTTPCluster(t, 4, alloc.GapRoundRobin)
	defer coord.Close()
	for _, q := range qs {
		want, err := engine.ScanGrouped(tab, q)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := coord.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %+v: http cluster %+v != scan %+v", q, got, want)
		}
		if st.Retries != 0 {
			t.Errorf("query %+v: %d retries on a healthy loopback cluster", q, st.Retries)
		}
	}
}

// TestHTTPAppendAndStats exercises the ingest and stats paths over the
// wire: an append routed to its owner is visible in the next query, and
// NodeStats round-trips with the ingestion counters intact.
func TestHTTPAppendAndStats(t *testing.T) {
	star, _, _, tab, _ := clusterFixture(t)
	coord, nodes := buildHTTPCluster(t, 2, alloc.RoundRobin)
	defer coord.Close()
	ctx := context.Background()

	q, err := frag.ParseQuery(star, "")
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := coord.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	leaves := tab.LeafMembers(0, make([]int, len(tab.Star.Dims)))
	row := Row{Leaves: make([]int32, len(leaves)), UnitsSold: 1, DollarSales: 2, Cost: 1}
	for d, m := range leaves {
		row.Leaves[d] = int32(m)
	}
	if err := coord.Append(ctx, []Row{row}); err != nil {
		t.Fatal(err)
	}
	after, _, err := coord.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != before.Count+1 {
		t.Fatalf("append not visible over http: count %d -> %d", before.Count, after.Count)
	}

	sts, err := coord.NodeStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var appended int64
	for k, st := range sts {
		if st.Index != k {
			t.Errorf("node %d stats report index %d", k, st.Index)
		}
		appended += st.AppendedRows
		if want := nodes[k].Stats().AppendedRows; st.AppendedRows != want {
			t.Errorf("node %d: wire AppendedRows %d != local %d", k, st.AppendedRows, want)
		}
	}
	if appended != 1 {
		t.Fatalf("cluster-wide AppendedRows = %d, want 1", appended)
	}
	if err := coord.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	again, _, err := coord.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, after) {
		t.Fatalf("compaction over http changed the result: %+v != %+v", again, after)
	}
}

// TestHTTPErrorMapping checks that node-side typed errors survive the
// status-code round trip: a killed node comes back as ErrNodeFailed in a
// NodeError naming the right node, and admission shedding as
// exec.ErrOverloaded — neither retried.
func TestHTTPErrorMapping(t *testing.T) {
	star, _, _, _, _ := clusterFixture(t)
	coord, nodes := buildHTTPCluster(t, 2, alloc.RoundRobin)
	defer coord.Close()
	ctx := context.Background()

	nodes[1].Fail()
	q, err := frag.ParseQuery(star, "")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = coord.Execute(ctx, q)
	if !errors.Is(err, ErrNodeFailed) {
		t.Fatalf("killed node over http: got %v, want ErrNodeFailed", err)
	}
	var ne *NodeError
	if !errors.As(err, &ne) || ne.Node != 1 {
		t.Fatalf("error does not name node 1: %v", err)
	}
	if st := coord.ClientStats()[1]; st.Retries != 0 {
		t.Fatalf("node-failed was retried %d times; node errors must not be retried", st.Retries)
	}
	nodes[1].Revive()
	if _, _, err := coord.Execute(ctx, q); err != nil {
		t.Fatalf("after revive: %v", err)
	}

	// Overload mapping, via a bare handler returning the shed header.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, fmt.Errorf("node 0: %w", exec.ErrOverloaded))
	}))
	defer srv.Close()
	tr, err := NewHTTPTransport([]string{srv.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Exec(ctx, 0, Request{})
	if !errors.Is(err, exec.ErrOverloaded) {
		t.Fatalf("overload status: got %v, want exec.ErrOverloaded", err)
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatal("overload must not be marked retryable")
	}
}

// TestHTTPUnavailableRetried checks the transport-level failure path: a
// connection that never reaches a node wraps ErrUnavailable, and the
// coordinator retries it (here: forever down, so MaxAttempts are spent).
func TestHTTPUnavailableRetried(t *testing.T) {
	star, spec, icfg, tab, _ := clusterFixture(t)
	cl := alloc.Placement{Disks: 1, Scheme: alloc.RoundRobin}
	node, err := NewNode(NodeConfig{Spec: spec, Indexes: icfg, Index: 0, Cluster: cl}, PartitionTable(spec, cl, tab)[0])
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv := httptest.NewServer(NewNodeHandler(node))
	addr := srv.URL
	srv.Close() // nothing listens: every dial fails before reaching a node
	tr, err := NewHTTPTransport([]string{addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	retry := storage.RetryPolicy{MaxAttempts: 3, BaseBackoff: 1, MaxBackoff: 1, BreakerThreshold: 100}
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, Cluster: cl, Retry: retry}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	q, err := frag.ParseQuery(star, "")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = coord.Execute(context.Background(), q)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dead server: got %v, want ErrUnavailable", err)
	}
	if st := coord.ClientStats()[0]; st.Retries != int64(retry.MaxAttempts-1) {
		t.Fatalf("Retries = %d, want %d (every attempt re-sent)", st.Retries, retry.MaxAttempts-1)
	}
}

// TestHTTPStatsCancelledIsNotUnavailable: a caller that cancels Stats —
// before the request is sent, or while the node is still answering —
// gets its own context.Canceled back, not ErrUnavailable: the node is
// healthy, the caller gave up. The same node answers an uncancelled
// Stats, and a dead one is still ErrUnavailable.
func TestHTTPStatsCancelledIsNotUnavailable(t *testing.T) {
	_, spec, icfg, tab, _ := clusterFixture(t)
	cl := alloc.Placement{Disks: 1, Scheme: alloc.RoundRobin}
	node, err := NewNode(NodeConfig{Spec: spec, Indexes: icfg, Index: 0, Cluster: cl}, PartitionTable(spec, cl, tab)[0])
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	// While holding, every request is announced on hold once it has
	// reached the node and kept there until the client goes away.
	var holding atomic.Bool
	hold := make(chan struct{})
	inner := NewNodeHandler(node)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if holding.Load() {
			hold <- struct{}{}
			<-r.Context().Done()
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	tr, err := NewHTTPTransport([]string{srv.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Stats(context.Background(), 0); err != nil {
		t.Fatalf("uncancelled Stats: %v", err)
	}
	check := func(when string, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) || errors.Is(err, ErrUnavailable) {
			t.Fatalf("Stats cancelled %s the request: got %v, want context.Canceled and not ErrUnavailable", when, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = tr.Stats(ctx, 0)
	check("before", err)

	holding.Store(true)
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		<-hold // the request is at the node
		cancel()
	}()
	_, err = tr.Stats(ctx, 0)
	check("during", err)

	srv.Close()
	if _, err := tr.Stats(context.Background(), 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dead server: got %v, want ErrUnavailable", err)
	}
}

// TestHTTPMalformedReplyIsUnavailable: a node answering 200 with a body
// that is not a whole, well-formed reply frame fails the coordinator's
// grouped query with an error wrapping ErrUnavailable — never a panic
// in the caller's merge, never a result.
func TestHTTPMalformedReplyIsUnavailable(t *testing.T) {
	star, spec, _, _, _ := clusterFixture(t)
	q, err := frag.ParseQuery(star, "group by time::month")
	if err != nil {
		t.Fatal(err)
	}
	grouped := Response{Grouped: true, Groups: []Group{
		{Key: 1, Agg: kernel.Aggregate{Count: 1, UnitsSold: 300}},
		{Key: 2, Agg: kernel.Aggregate{Count: 1, UnitsSold: 300}},
	}}
	valid, err := EncodeResponse(grouped)
	if err != nil {
		t.Fatal(err)
	}
	noGroups, err := EncodeResponse(Response{Grouped: true})
	if err != nil {
		t.Fatal(err)
	}
	tooMany := bytes.Clone(noGroups)
	tooMany[len(tooMany)-1] = 100 // a one-byte group count, 100 groups in no bytes
	badVersion := bytes.Clone(valid)
	badVersion[0] = wireVersion + 1
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"truncated-mid-group", valid[:len(valid)-2]},
		{"trailing-bytes", append(bytes.Clone(valid), 0)},
		{"group-count-beyond-body", tooMany},
		{"unknown-version", badVersion},
		{"empty", []byte{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write(tc.body)
			}))
			defer srv.Close()
			tr, err := NewHTTPTransport([]string{srv.URL}, nil)
			if err != nil {
				t.Fatal(err)
			}
			retry := storage.RetryPolicy{MaxAttempts: 1, BreakerThreshold: 100}
			coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, Cluster: alloc.Placement{Disks: 1}, Retry: retry}, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			res, _, err := coord.Execute(context.Background(), q)
			if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), errFrame.Error()) {
				t.Fatalf("got %+v, %v; want an ErrUnavailable naming the malformed frame", res, err)
			}
		})
	}
}

// countingZeros is an endless body of zero bytes that counts what the
// server actually consumed.
type countingZeros struct{ read int64 }

func (z *countingZeros) Read(p []byte) (int, error) {
	clear(p)
	z.read += int64(len(p))
	return len(p), nil
}

// TestHTTPOversizedBodyRefused: a node must refuse a request body beyond
// maxRequestBytes with 413 and the typed error — on the declared length
// without reading anything, on a chunked body without consuming (let
// alone buffering) more than the limit — and the client must rebuild
// ErrRequestTooLarge from the reply.
func TestHTTPOversizedBodyRefused(t *testing.T) {
	_, spec, icfg, tab, _ := clusterFixture(t)
	node, err := NewNode(NodeConfig{Spec: spec, Indexes: icfg}, tab)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	h := NewNodeHandler(node)
	for _, path := range []string{"/exec", "/append"} {
		for _, declared := range []bool{true, false} {
			body := &countingZeros{}
			req := httptest.NewRequest(http.MethodPost, path, io.LimitReader(body, 4*maxRequestBytes))
			if declared {
				req.ContentLength = 4 * maxRequestBytes
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge || rec.Header().Get(errHeader) != errTooLarge {
				t.Fatalf("%s declared=%v: status %d, %s=%q; want 413 %s", path, declared, rec.Code, errHeader, rec.Header().Get(errHeader), errTooLarge)
			}
			limit := int64(maxRequestBytes + 1)
			if declared {
				limit = 0
			}
			if body.read > limit {
				t.Fatalf("%s declared=%v: node consumed %d body bytes, want <= %d", path, declared, body.read, limit)
			}
			err := (&HTTPTransport{}).statusErr(3, rec.Result())
			var ne *NodeError
			if !errors.As(err, &ne) || ne.Node != 3 || !errors.Is(err, ErrRequestTooLarge) {
				t.Fatalf("%s: client rebuilt %v, want NodeError{3, ErrRequestTooLarge}", path, err)
			}
		}
	}
	if st := node.Stats(); st.Queries != 0 || st.Appends != 0 {
		t.Fatalf("refused requests reached the node: %+v", st)
	}
}
