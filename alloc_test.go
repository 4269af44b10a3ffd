package mdhf

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/frag"
	"repro/internal/kernel"
)

// TestExecuteAllocationFloor pins what one warm Execute allocates: its
// answer and nothing else. The call's dispatch — its batch plan, the
// backend's fold binding, its partials and the pool job — is recycled with
// the call's partial set, and an ungrouped answer allocates nothing, so a
// query of one fragment, which runs on its caller, allocates nothing at
// all, and one of 16 fragments only the copy of the pool's job snapshot
// that publishing its job makes, an array and its slice header. On disk (the benchmark's
// cpu_hot shape: four disks, no delay, a buffer pool holding every page)
// a query allocates as it does in memory; a shared scan of four members
// allocates its outcome list besides. The bounds are the measured values
// (0 B and 0 mallocs; 48 B and 2 mallocs, in memory and on disk; 496 B
// and 3 mallocs for the shared scan; amd64, go1.24) plus slack for the
// pool's own goroutines, whose allocations the counters also see. When
// the dispatch was allocated per call the same queries took 280 B in 4
// mallocs and 688 B in 11, and before one-task calls ran on their
// callers and plans stopped listing a lone query's fragments 1,212 B in
// 24 and 1,316 B in 21.
func TestExecuteAllocationFloor(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	cfg := Config{Star: star, Fragmentation: "time::month, product::class", Table: MustGenerateData(star, 3)}
	mem, err := Open(ctx, cfg, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	disk, err := Open(ctx, cfg, WithOnDisk(t.TempDir()), WithDisks(4, RoundRobin), WithIODelay(0), WithBufferPool(64<<20), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	query := func(w *Warehouse, text string, frags int64) func() {
		p, err := w.QueryText(text)
		if err != nil {
			t.Fatal(err)
		}
		if n := w.spec.RelevantCount(p.Query()); n != frags {
			t.Fatalf("%s: %d fragments, want %d", text, n, frags)
		}
		return func() {
			if _, _, err := p.Execute(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	var batch []frag.Query
	for _, text := range []string{"customer::store=3", "time::month=1", "product::class=2", "time::quarter=1"} {
		p, err := mem.QueryText(text)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, p.Query())
	}
	shared := func() {
		outs, err := mem.store.Current().B.Engine.Shared(ctx, mem.store.Sched, batch, kernel.Deltas{}, nil)
		if err != nil || outs.Len() != len(batch) {
			t.Fatalf("shared scan: %d outcomes, %v", outs.Len(), err)
		}
	}
	for _, tc := range []struct {
		name           string
		run            func()
		bytes, mallocs uint64
	}{
		{"in memory, 1 fragment", query(mem, "time::month=1, product::class=2", 1), 64, 1},
		{"in memory, 16 fragments", query(mem, "customer::store=3", 16), 200, 4},
		{"on disk, 16 fragments", query(disk, "customer::store=3", 16), 200, 4},
		{"in memory, a shared scan of 4", shared, 640, 4},
	} {
		for i := 0; i < 10; i++ {
			tc.run()
		}
		mallocs := testing.AllocsPerRun(100, tc.run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			tc.run()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / 100
		t.Logf("%s: %d bytes, %.0f mallocs per warm call", tc.name, bytes, mallocs)
		if bytes > tc.bytes || mallocs > float64(tc.mallocs) {
			t.Errorf("%s: %d bytes and %.0f mallocs per warm call, want at most %d and %d", tc.name, bytes, mallocs, tc.bytes, tc.mallocs)
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
// group maps from empty and snapshotted the disk counters, and about
// 2,580 B against 710 B while the call's dispatch was allocated per
// call; now about 1,910 B in 7 mallocs against 50 B in 2.
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
