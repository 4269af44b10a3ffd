package mdhf

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// sharedScanQueries is a mixed Q1-Q4 workload — grouped and ungrouped,
// aligned and per-row grouping, overlapping confinement regions — under
// "time::month, product::group" on Tiny.
func sharedScanQueries(t testing.TB, star *Star) []Query {
	t.Helper()
	texts := []string{
		"time::month=1",
		"time::quarter=1 group by time::month",
		"product::code=3 group by product::code",
		"time::month=2, product::group=1",
		"group by time::quarter, product::group",
		"customer::store=2 group by customer::store",
		"time::month=1 group by product::group",
		"time::quarter=0",
	}
	qs := make([]Query, len(texts))
	for i, text := range texts {
		q, err := ParseQuery(star, text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		qs[i] = q
	}
	return qs
}

// runSharedRound fires K concurrent executions of qs (round-robin) at
// the warehouse through one start barrier, checking every result and
// every logical stat against the solo oracle. It returns each
// execution's shared-scan report.
func runSharedRound(t *testing.T, ctx context.Context, w *Warehouse, qs []Query, want []Result, wantSt []Stats, k int) []SharedScanStats {
	t.Helper()
	return runSharedRoundOpt(t, ctx, w, qs, want, wantSt, k, true)
}

// runSharedRoundOpt is runSharedRound with stat checking optional: a
// round racing a compaction still gets byte-identical results from its
// pinned snapshot, but its I/O counters legitimately differ (delta rows
// are served from memory until the swap).
func runSharedRoundOpt(t *testing.T, ctx context.Context, w *Warehouse, qs []Query, want []Result, wantSt []Stats, k int, checkStats bool) []SharedScanStats {
	t.Helper()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, k)
	scans := make([]SharedScanStats, k)
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			qi := g % len(qs)
			res, st, err := w.Query(qs[qi]).Execute(ctx)
			if err != nil {
				errs[g] = err
				return
			}
			scans[g] = st.SharedScan
			if !reflect.DeepEqual(res, want[qi]) {
				errs[g] = fmt.Errorf("query %d: shared result diverged from solo:\n got %+v\nwant %+v", qi, res, want[qi])
				return
			}
			if !checkStats {
				return
			}
			// Sharing must not disturb the per-query logical counters.
			if st.Engine != wantSt[qi].Engine {
				errs[g] = fmt.Errorf("query %d: engine stats diverged: got %+v want %+v", qi, st.Engine, wantSt[qi].Engine)
				return
			}
			if st.IO != wantSt[qi].IO {
				errs[g] = fmt.Errorf("query %d: IO stats diverged: got %+v want %+v", qi, st.IO, wantSt[qi].IO)
				return
			}
			if st.DeltaRows != wantSt[qi].DeltaRows {
				errs[g] = fmt.Errorf("query %d: delta rows %d, want %d", qi, st.DeltaRows, wantSt[qi].DeltaRows)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return scans
}

// tallyShared derives the store-wide shared-scan counters from the
// executions' own reports: a batch of b members reports b times, a solo
// window once, and a fallback nothing.
func tallyShared(scans []SharedScanStats) SharedServingStats {
	var st SharedServingStats
	members := map[int]int64{} // batch size → executions reporting it
	for _, sc := range scans {
		switch {
		case sc.Batched == 0:
			st.Fallbacks++
		case sc.Batched == 1:
			st.SoloWindows++
		default:
			st.BatchedQueries++
			members[sc.Batched]++
		}
		st.FragmentsShared += int64(sc.FragmentsShared)
		st.PhysReadsSaved += sc.PhysReadsSaved
	}
	for b, n := range members {
		st.Batches += n / int64(b)
	}
	return st
}

// soloOracle executes every query alone on the oracle warehouse and
// returns the expected results and stats.
func soloOracle(t *testing.T, ctx context.Context, w *Warehouse, qs []Query) ([]Result, []Stats) {
	t.Helper()
	want := make([]Result, len(qs))
	wantSt := make([]Stats, len(qs))
	for i, q := range qs {
		res, st, err := w.Query(q).Execute(ctx)
		if err != nil {
			t.Fatalf("oracle query %d: %v", i, err)
		}
		want[i], wantSt[i] = res, st
	}
	return want, wantSt
}

// TestSharedScanEquivalence is the shared-scan guarantee across the
// backend matrix: K concurrent mixed Q1-Q4 queries batched into shared
// scans return results and logical statistics byte-identical to solo
// execution, while the physical work strictly decreases on overlap.
func TestSharedScanEquivalence(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	qs := sharedScanQueries(t, star)
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: tab}

	cases := []struct {
		name   string
		opts   []Option
		onDisk bool
	}{
		{"in-memory", nil, false},
		{"on-disk", []Option{WithOnDisk("")}, true},
		{"on-disk/compressed", []Option{WithOnDisk(""), WithCompression()}, true},
		{"declustered/8", []Option{WithDisks(8, RoundRobin)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oracle, err := Open(ctx, cfg, append([]Option{WithWorkers(4)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()
			shared, err := Open(ctx, cfg,
				append([]Option{WithWorkers(4), WithSharedScans(2 * time.Millisecond)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer shared.Close()

			want, wantSt := soloOracle(t, ctx, oracle, qs)
			var scans []SharedScanStats
			for _, k := range []int{2, 8, 32} {
				scans = append(scans, runSharedRound(t, ctx, shared, qs, want, wantSt, k)...)
			}

			st := shared.ServingStats()
			if tally := tallyShared(scans); st.Shared != tally {
				t.Fatalf("ServingStats.Shared %+v, the executions' own batch counts %+v", st.Shared, tally)
			}
			if st.Shared.Batches == 0 {
				t.Fatalf("no multi-query batches formed: %+v", st.Shared)
			}
			if tc.onDisk {
				if st.Shared.PhysReadsSaved == 0 {
					t.Fatalf("no physical reads saved on an on-disk backend: %+v", st.Shared)
				}
			} else if st.Shared.FragmentsShared == 0 {
				t.Fatalf("no fragments co-scanned: %+v", st.Shared)
			}
			if mix := shared.QueryMix(); mix.Total == 0 || len(mix.Queries) == 0 {
				t.Fatalf("query mix not recorded: %+v", mix)
			}
		})
	}
}

// TestSharedScanPhysicalReadsDecrease runs the identical concurrent
// workload with sharing off and on over the same declustered placement
// and asserts the shared run touched the disks strictly less.
func TestSharedScanPhysicalReadsDecrease(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	qs := sharedScanQueries(t, star)
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: tab}

	run := func(opts ...Option) int64 {
		w, err := Open(ctx, cfg, append([]Option{WithWorkers(4), WithDisks(8, RoundRobin)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		want, wantSt := soloOracle(t, ctx, w, qs)
		w.ResetDiskStats()
		runSharedRound(t, ctx, w, qs, want, wantSt, 16)
		var ios int64
		for _, d := range w.DiskStats() {
			ios += d.IOs
		}
		return ios
	}
	off := run()
	on := run(WithSharedScans(2 * time.Millisecond))
	if on >= off {
		t.Fatalf("shared scans did not reduce physical disk reads: %d with sharing, %d without", on, off)
	}
}

// TestSharedScanEquivalenceUnderChurn batches queries while the
// warehouse ingests: appends land between rounds (the oracle gets the
// same rows, so expectations track the delta set) and a compaction —
// result-neutral by construction — overlaps the last concurrent round.
func TestSharedScanEquivalenceUnderChurn(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	qs := sharedScanQueries(t, star)
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: tab}

	oracle, err := Open(ctx, cfg, WithWorkers(4), WithOnDisk(""))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	shared, err := Open(ctx, cfg, WithWorkers(4), WithOnDisk(""), WithSharedScans(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()

	rows := splitRows(MustGenerateData(star, 3), 0, 30)
	for round := 0; round < 3; round++ {
		batch := rows[round*10 : (round+1)*10]
		if err := oracle.Append(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if err := shared.Append(ctx, batch); err != nil {
			t.Fatal(err)
		}
		want, wantSt := soloOracle(t, ctx, oracle, qs)
		runSharedRound(t, ctx, shared, qs, want, wantSt, 8)
	}

	// Mid-run compaction: result-neutral, so the round racing it keeps
	// matching the oracle compacted at the same delta boundary.
	if err := oracle.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	want, wantSt := soloOracle(t, ctx, oracle, qs)
	var wg sync.WaitGroup
	wg.Add(1)
	compErr := error(nil)
	go func() {
		defer wg.Done()
		compErr = shared.Compact(ctx)
	}()
	runSharedRoundOpt(t, ctx, shared, qs, want, wantSt, 8, false)
	wg.Wait()
	if compErr != nil {
		t.Fatal(compErr)
	}
	runSharedRound(t, ctx, shared, qs, want, wantSt, 8)
}

// TestSharedScanClusterEquivalence runs the concurrent workload against
// an in-process cluster whose nodes batch sub-requests, checking every
// result against a sharing-free cluster over the same shards.
func TestSharedScanClusterEquivalence(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	qs := sharedScanQueries(t, star)
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: tab}

	oracle, err := Open(ctx, cfg, WithNodes(3, RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	shared, err := Open(ctx, cfg, WithNodes(3, RoundRobin), WithSharedScans(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()

	want := make([]Result, len(qs))
	for i, q := range qs {
		res, _, err := oracle.Query(q).Execute(ctx)
		if err != nil {
			t.Fatalf("oracle query %d: %v", i, err)
		}
		want[i] = res
	}

	const k = 12
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, k)
	var batchedMax int64
	var mu sync.Mutex
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			qi := g % len(qs)
			res, st, err := shared.Query(qs[qi]).Execute(ctx)
			if err != nil {
				errs[g] = err
				return
			}
			if !reflect.DeepEqual(res, want[qi]) {
				errs[g] = fmt.Errorf("query %d: cluster shared result diverged:\n got %+v\nwant %+v", qi, res, want[qi])
				return
			}
			mu.Lock()
			if int64(st.SharedScan.Batched) > batchedMax {
				batchedMax = int64(st.SharedScan.Batched)
			}
			mu.Unlock()
		}(g)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if batchedMax < 2 {
		t.Fatalf("no node-side batch formed under %d concurrent cluster queries", k)
	}
}

// TestRecycledPartialsNeverAlias: the workers' group accumulators and
// outcome lists are kept from call to call, so a result must own what it
// returns. Goroutines interleave aligned and per-row grouped queries,
// ungrouped ones and, through 1 ms shared-scan windows, K >= 2 batches
// on one warehouse per backend; every answer must equal the scan oracle,
// and the first answer each goroutine got for each query must still
// equal it after 100 later calls.
func TestRecycledPartialsNeverAlias(t *testing.T) {
	const goroutines, calls = 4, 100
	ctx := context.Background()
	star := TinySchema()
	tab := MustGenerateData(star, 5)
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: tab}
	texts := []string{
		"time::quarter=1 group by product::group",                    // aligned
		"group by time::quarter, product::group",                     // aligned, every fragment
		"product::group=1 group by customer::store",                  // per row
		"customer::retailer=1 group by time::month, customer::store", // aligned and per row
		"customer::store=3",                                          // ungrouped
		"time::month=2, product::group=1",                            // ungrouped, one fragment
	}
	qs := make([]Query, len(texts))
	want := make([]Result, len(texts))
	for i, text := range texts {
		var err error
		if qs[i], err = ParseQuery(star, text); err != nil {
			t.Fatal(err)
		}
		if want[i], err = ScanGroupedAggregate(tab, qs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, backend := range []struct {
		name string
		opts []Option
	}{
		{"in-memory", nil},
		{"on-disk", []Option{WithOnDisk(""), WithDisks(4, RoundRobin)}},
	} {
		t.Run(backend.name, func(t *testing.T) {
			w, err := Open(ctx, cfg, append([]Option{WithWorkers(2), WithSharedScans(time.Millisecond)}, backend.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					kept := make([]Result, len(qs))
					for c := 0; c < calls+len(qs); c++ {
						i := (g + c) % len(qs)
						res, _, err := w.Query(qs[i]).Execute(ctx)
						if err != nil {
							t.Error(err)
							return
						}
						if !reflect.DeepEqual(res, want[i]) {
							t.Errorf("goroutine %d call %d %q: %+v, oracle %+v", g, c, texts[i], res, want[i])
							return
						}
						if c < len(qs) {
							kept[i] = res
						}
					}
					for i, res := range kept {
						if !reflect.DeepEqual(res, want[i]) {
							t.Errorf("goroutine %d %q: kept result changed to %+v, oracle %+v", g, texts[i], res, want[i])
						}
					}
				}(g)
			}
			wg.Wait()
			if st := w.ServingStats().Shared; st.Batches == 0 {
				t.Errorf("no K >= 2 batch formed: %+v", st)
			}
		})
	}
}
