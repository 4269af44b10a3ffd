package mdhf

import (
	"context"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// openFDs counts the process's open file descriptors (-1 where /proc is
// absent).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// assertNoLeaks runs serve — open a façade, use it, Close it — and fails
// if goroutines or file descriptors outlive it. Goroutines exit
// asynchronously after the Close that stops them, so the check polls
// briefly before giving up.
func assertNoLeaks(t *testing.T, serve func()) {
	t.Helper()
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	serve()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before Open, %d after Close:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
	if fds < 0 {
		t.Log("no /proc/self/fd: file-descriptor half skipped")
	} else if n := openFDs(); n > fds {
		t.Errorf("%d file descriptors before Open, %d after Close", fds, n)
	}
}

// TestNothingLeaksAfterClose: one store or three nodes, one workload —
// on-disk, declustered, pooled, shared scans on, concurrent queries, an
// append, a compaction, queries on the new epoch, and again under
// transient read faults with retries on — must leave no goroutine
// (scheduler workers, disk queues, admission windows, background
// compactors) and no file descriptor (store, bitmap and journal files of
// either epoch) behind after Close.
func TestNothingLeaksAfterClose(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	full := MustGenerateData(star, 8)
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: prefixTable(full, full.N()/2)}
	extra := splitRows(full, full.N()/2, full.N())
	queries := make([]Query, len(ingestQueries))
	for i, text := range ingestQueries {
		var err error
		if queries[i], err = ParseQuery(star, text); err != nil {
			t.Fatal(err)
		}
	}
	// workload drives one opened warehouse through its whole life.
	workload := func(w *Warehouse) {
		t.Helper()
		queryAll := func() {
			var wg sync.WaitGroup
			for _, q := range queries {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, _, err := w.Query(q).Execute(ctx); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		}
		queryAll()
		if err := w.Append(ctx, extra); err != nil {
			t.Fatal(err)
		}
		queryAll()
		if err := w.Compact(ctx); err != nil {
			t.Fatal(err)
		}
		queryAll()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	faults := []Option{
		WithFaultPlan(FaultPlan{Seed: 7, ReadErrorRate: 0.05}),
		WithRetryPolicy(fastFaultRetry()),
	}
	for _, leg := range []struct {
		name  string
		nodes int
		more  []Option
	}{
		{"warehouse", 1, nil},
		{"cluster", 3, nil},
		{"warehouse-faults", 1, faults},
		{"cluster-faults", 3, faults},
	} {
		t.Run(leg.name, func(t *testing.T) {
			o := append([]Option{WithNodes(leg.nodes, RoundRobin), WithOnDisk(t.TempDir()), WithDisks(2, RoundRobin),
				WithCompression(), WithSharedScans(time.Millisecond), WithBufferPool(1 << 20),
				WithAutoCompaction(1 << 30)}, leg.more...)
			assertNoLeaks(t, func() {
				w, err := Open(ctx, cfg, o...)
				if err != nil {
					t.Fatal(err)
				}
				workload(w)
			})
		})
	}
	// Nodes behind servers that outlive the façade: its Close must still
	// release every keep-alive connection it opened to them.
	t.Run("cluster-http", func(t *testing.T) {
		spec, err := ParseFragmentation(star, cfg.Fragmentation)
		if err != nil {
			t.Fatal(err)
		}
		cl := Placement{Disks: 3, Scheme: RoundRobin}
		shards := PartitionFactTable(spec, cl, cfg.Table)
		addrs := make([]string, len(shards))
		for k, shard := range shards {
			node, err := NewClusterNode(ClusterNodeConfig{
				Spec: spec, Indexes: APB1Indexes(star), Index: k, Cluster: cl,
				OnDisk: true, Dir: t.TempDir(), Disks: 2, Compress: true, SharedWindow: time.Millisecond,
			}, shard)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { node.Close() })
			srv := httptest.NewServer(NewNodeHandler(node))
			t.Cleanup(srv.Close)
			addrs[k] = srv.URL
		}
		assertNoLeaks(t, func() {
			w, err := Open(ctx, cfg, WithNodes(len(addrs), RoundRobin), WithNodeAddrs(addrs...))
			if err != nil {
				t.Fatal(err)
			}
			workload(w)
		})
	})
}
