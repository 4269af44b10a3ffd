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

// TestNothingLeaksAfterClose: both façades run the one epoch store, so
// one workload — on-disk, declustered, pooled, shared scans on,
// concurrent queries, an append, a compaction, queries on the new epoch
// — must leave no goroutine (scheduler workers, disk queues, admission
// windows, background compactor) and no file descriptor (store, bitmap
// and journal files of either epoch) behind after Close.
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
	// workload drives one opened façade through its whole life.
	workload := func(exec func(Query) error, appendRows func([]FactRow) error, compact func() error, closeIt func() error) {
		t.Helper()
		queryAll := func() {
			var wg sync.WaitGroup
			for _, q := range queries {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := exec(q); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		}
		queryAll()
		if err := appendRows(extra); err != nil {
			t.Fatal(err)
		}
		queryAll()
		if err := compact(); err != nil {
			t.Fatal(err)
		}
		queryAll()
		if err := closeIt(); err != nil {
			t.Fatal(err)
		}
	}
	opts := func(more ...Option) []Option {
		return append([]Option{WithOnDisk(t.TempDir()), WithDisks(2, RoundRobin), WithCompression(),
			WithSharedScans(time.Millisecond)}, more...)
	}
	t.Run("warehouse", func(t *testing.T) {
		o := opts(WithBufferPool(1<<20), WithAutoCompaction(1<<30))
		assertNoLeaks(t, func() {
			w, err := Open(ctx, cfg, o...)
			if err != nil {
				t.Fatal(err)
			}
			workload(
				func(q Query) error { _, _, err := w.Query(q).Execute(ctx); return err },
				func(rows []FactRow) error { return w.Append(ctx, rows) },
				func() error { return w.Compact(ctx) },
				w.Close)
		})
	})
	t.Run("cluster", func(t *testing.T) {
		o := opts(WithNodes(3, RoundRobin))
		assertNoLeaks(t, func() {
			c, err := OpenCluster(ctx, cfg, o...)
			if err != nil {
				t.Fatal(err)
			}
			workload(
				func(q Query) error { _, _, err := c.Query(q).Execute(ctx); return err },
				func(rows []FactRow) error { return c.Append(ctx, rows) },
				func() error { return c.Compact(ctx) },
				c.Close)
		})
	})
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
			c, err := OpenCluster(ctx, cfg, WithNodes(len(addrs), RoundRobin), WithNodeAddrs(addrs...))
			if err != nil {
				t.Fatal(err)
			}
			workload(
				func(q Query) error { _, _, err := c.Query(q).Execute(ctx); return err },
				func(rows []FactRow) error { return c.Append(ctx, rows) },
				func() error { return c.Compact(ctx) },
				c.Close)
		})
	})
}
