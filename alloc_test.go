package mdhf

import (
	"context"
	"runtime"
	"testing"
)

// TestExecuteAllocationFloor pins what one warm in-memory Execute
// allocates: its answer and little else. A query of one fragment runs on
// its caller, with no job, channel, partials array or fragment list; a
// query of 16 fragments pays the pool's dispatch once, not per fragment.
// The bounds are the measured values (416 B and 4 mallocs, 676 B and 10
// mallocs on amd64, go1.24) plus about 25 %. When every call went through
// the pool and listed its fragments, the same queries took 1,212 B and 24
// mallocs, and 1,316 B and 21.
func TestExecuteAllocationFloor(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::class", Table: MustGenerateData(star, 3)}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, tc := range []struct {
		text           string
		frags          int64
		bytes, mallocs uint64
	}{
		{"time::month=1, product::class=2", 1, 520, 5},
		{"customer::store=3", 16, 850, 13},
	} {
		p, err := w.QueryText(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		if n := w.spec.RelevantCount(p.Query()); n != tc.frags {
			t.Fatalf("%s: %d fragments, want %d", tc.text, n, tc.frags)
		}
		run := func() {
			if _, _, err := p.Execute(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			run()
		}
		mallocs := testing.AllocsPerRun(100, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / 100
		t.Logf("%s (%d fragments): %d bytes, %.0f mallocs per warm Execute", tc.text, tc.frags, bytes, mallocs)
		if bytes > tc.bytes || mallocs > float64(tc.mallocs) {
			t.Errorf("%s: %d bytes and %.0f mallocs per warm Execute, want at most %d and %d", tc.text, bytes, mallocs, tc.bytes, tc.mallocs)
		}
	}
}

// TestServingStatsPollIsFlat: a ServingStats poll reads counters only —
// it copies neither the observed query mix nor a per-disk slice — so it
// allocates the same with observedQueryCap recorded queries as with none,
// and on 8 disks as on 1, within a small constant.
func TestServingStatsPollIsFlat(t *testing.T) {
	const slack = 64 // bytes per poll
	ctx := context.Background()
	star := TinySchema()
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: MustGenerateData(star, 5)}
	poll := func(w *Warehouse) uint64 {
		w.ServingStats()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			w.ServingStats()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 100
	}
	var base uint64 // one disk, nothing recorded
	for _, disks := range []int{1, 8} {
		w, err := Open(ctx, cfg, WithWorkers(2), WithDisks(disks, RoundRobin))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		empty := poll(w)
		for _, q := range distinctQueries(star, 4)[:observedQueryCap] {
			if _, _, err := w.Query(q).Execute(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(w.QueryMix().Queries); n != observedQueryCap {
			t.Fatalf("%d disks: %d queries recorded, want %d", disks, n, observedQueryCap)
		}
		full := poll(w)
		t.Logf("%d disks: %d B per poll with no query recorded, %d B with %d", disks, empty, full, observedQueryCap)
		if disks == 1 {
			base = empty
		}
		for _, b := range []uint64{empty, full} {
			if b > base+slack || base > b+slack {
				t.Errorf("%d disks: a poll allocated %d B with no query recorded and %d B with %d; %d B on one disk with none", disks, empty, full, observedQueryCap, base)
			}
		}
	}
}

// TestGroupedExecuteAllocatesItsRows: a warm query grouped on the
// fragment-aligned path allocates what its ungrouped twin does plus its
// rows — the run its groups are published in, the rows and their
// Members — and nothing per fragment or per worker: the workers' group
// accumulators are kept with the call's partials. rowBytes covers a
// group's 40-byte run entry, 56-byte row and 8-byte member with
// size-class slack, and the grouper the query derives. On disk
// (1STORE, 1QUARTER; amd64, go1.24) the grouped queries took 7,684 B
// and 6,636 B against about 1,060 B ungrouped when every call grew its
// group maps from empty and snapshotted the disk counters; now about
// 2,650 B against 740 B.
func TestGroupedExecuteAllocatesItsRows(t *testing.T) {
	const rowBytes = 160
	ctx := context.Background()
	star := APB1Scaled(60)
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: MustGenerateData(star, 1)}
	for _, backend := range []struct {
		name string
		opts []Option
	}{
		{"on-disk", []Option{WithOnDisk(t.TempDir()), WithDisks(4, RoundRobin), WithBufferPool(64 << 20), WithWorkers(2)}},
		{"in-memory", []Option{WithWorkers(2)}},
	} {
		w, err := Open(ctx, cfg, backend.opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for _, pred := range []string{"customer::store=3", "time::quarter=2"} {
			measure := func(text string) (uint64, float64, int) {
				p, err := w.QueryText(text)
				if err != nil {
					t.Fatal(err)
				}
				var rows int
				run := func() {
					res, _, err := p.Execute(ctx)
					if err != nil {
						t.Fatal(err)
					}
					rows = len(res.Groups)
				}
				for i := 0; i < 20; i++ {
					run()
				}
				mallocs := testing.AllocsPerRun(100, run)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 100; i++ {
					run()
				}
				runtime.ReadMemStats(&after)
				return (after.TotalAlloc - before.TotalAlloc) / 100, mallocs, rows
			}
			plain, plainMallocs, _ := measure(pred)
			grouped, groupedMallocs, rows := measure(pred + " group by product::group")
			t.Logf("%s %s: grouped %d B in %.0f mallocs (%d rows), ungrouped %d B in %.0f mallocs",
				backend.name, pred, grouped, groupedMallocs, rows, plain, plainMallocs)
			if rows != 16 {
				t.Fatalf("%s %s: %d groups, want 16", backend.name, pred, rows)
			}
			if limit := plain + uint64(rows)*rowBytes; grouped > limit {
				t.Errorf("%s %s: grouped query allocated %d B, want at most its ungrouped twin's %d B + %d rows × %d B = %d B",
					backend.name, pred, grouped, plain, rows, rowBytes, limit)
			}
		}
	}
}
