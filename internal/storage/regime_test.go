package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
)

// regimeStore is the store the regime tests run on: two thirds of the
// sparse table under month×group — 32 fragments of 13 pages — so a
// prefetch granule of 4 pages gives every fragment a 4-granule read list
// and one of 32 pages makes every fragment a single granule. The last
// third of the table is the delta snapshot.
func regimeStore(t *testing.T, cfg BackendConfig) (be *Backend, dir string, base, full *data.Table, deltas kernel.Deltas) {
	t.Helper()
	s := sparseSchema()
	full = data.MustGenerate(s, 5)
	spec := frag.MustParse(s, "time::month, product::group")
	icfg := make(frag.IndexConfig, len(s.Dims))
	for i := range icfg {
		icfg[i] = frag.IndexSpec{Kind: frag.EncodedIndex}
	}
	nBase := full.N() * 2 / 3
	base = &data.Table{Star: s, Dims: make([][]int32, len(full.Dims)),
		UnitsSold: full.UnitsSold[:nBase], DollarSales: full.DollarSales[:nBase], Cost: full.Cost[:nBase]}
	for d := range full.Dims {
		base.Dims[d] = full.Dims[d][:nBase]
	}
	dir = t.TempDir()
	be, err := BuildBackend(dir, base, spec, icfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close() })
	return be, dir, base, full, tailDeltas(t, spec, icfg, full, nBase)
}

// regimeQueries: sparse and dense bitmap selections, whole-fragment scans
// of four and of all fragments, and a two-bitmap intersection.
var regimeQueries = []string{
	"customer::store=7",
	"time::month=2",
	"time::quarter=1, customer::retailer=2",
	"product::code=3, customer::retailer=2",
	"",
}

// regimeGroupBys: ungrouped, fragment-aligned and per-row grouping.
var regimeGroupBys = []string{"", " group by time::month, product::group", " group by customer::retailer, product::code"}

// TestExecutorRegimeMatrix runs every scan path of the solo executor —
// single-granule fragments (no granule-listing pass) and multi-granule
// ones × compressed / materialised × pool on / off × async prefetch on /
// off × ungrouped / aligned / per-row GROUP BY × with and without deltas
// — against the scan oracle, requires the I/O statistics to be
// independent of prefetch mode and grouping, and pins their sums to the
// values the tuple-at-a-time executor returned.
func TestExecutorRegimeMatrix(t *testing.T) {
	sched := exec.NewScheduler(2)
	defer sched.Close()
	ctx := context.Background()
	for _, compress := range []bool{false, true} {
		be, _, base, full, withDeltas := regimeStore(t, BackendConfig{Compress: compress, Sched: sched})
		if loc, _ := be.Store.Loc(be.Store.Fragments()[0]); loc.Pages <= 4 || loc.Pages > 32 {
			t.Fatalf("fragments of %d pages: not both regimes", loc.Pages)
		}
		for _, dl := range []struct {
			name   string
			deltas kernel.Deltas
			oracle *data.Table
		}{{"base", kernel.Deltas{}, base}, {"deltas", withDeltas, full}} {
			want := make(map[string]kernel.Result)
			for _, qt := range regimeQueries {
				for _, gb := range regimeGroupBys {
					q, err := frag.ParseQuery(base.Star, qt+gb)
					if err != nil {
						t.Fatal(err)
					}
					if want[qt+gb], err = engine.ScanGrouped(dl.oracle, q); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, prefetch := range []int{4, 32} {
				for _, pooled := range []bool{false, true} {
					name := fmt.Sprintf("compress=%v/%s/prefetch=%d/pool=%v", compress, dl.name, prefetch, pooled)
					var first []IOStats // per query, from the first (async, grouping) variant
					for _, async := range []bool{true, false} {
						for _, gb := range regimeGroupBys {
							var pool *BufPool
							if pooled {
								pool = NewBufPool(64 << 20) // fresh per variant: hits repeat exactly
							}
							be.Store.AttachPool(pool, 0)
							be.Bitmaps.AttachPool(pool, 0)
							be.Exec.PrefetchFact, be.Exec.AsyncPrefetch = prefetch, async
							for i, qt := range regimeQueries {
								q, err := frag.ParseQuery(base.Star, qt+gb)
								if err != nil {
									t.Fatal(err)
								}
								got, st, err := be.Exec.ExecuteGroupedDeltas(ctx, q, dl.deltas)
								if err != nil {
									t.Fatalf("%s async=%v %q: %v", name, async, qt+gb, err)
								}
								if !reflect.DeepEqual(got, want[qt+gb]) {
									t.Errorf("%s async=%v %q: result differs from the scan oracle", name, async, qt+gb)
								}
								if len(first) <= i {
									first = append(first, st)
								} else if st != first[i] {
									t.Errorf("%s async=%v %q: IOStats %+v, first variant %+v", name, async, qt+gb, st, first[i])
								}
							}
							if n := pinnedEntries(pool); n != 0 {
								t.Fatalf("%s: %d pool entries left pinned", name, n)
							}
						}
					}
					var sum IOStats
					for _, st := range first {
						sum.Add(st)
					}
					want := regimePinned[fmt.Sprintf("prefetch=%d/pool=%v", prefetch, pooled)]
					if !dl.deltas.Empty() {
						want.DeltaRows = regimeDeltaRows
					}
					if sum != want {
						t.Errorf("%s: IOStats %+v, pinned %+v", name, sum, want)
					}
				}
			}
		}
	}
}

// pinnedEntries counts the pool's entries holding a pin (nil pool: none).
func pinnedEntries(p *BufPool) int {
	n := 0
	if p == nil {
		return n
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			if e.pins != 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// regimePinned holds the IOStats sums over regimeQueries, measured at the
// parent commit (tuple-at-a-time executor), where this test was first
// run: bitmap fragments are sub-page here, so compression moves none of
// them, and a delta snapshot adds regimeDeltaRows and nothing else.
var regimePinned = map[string]IOStats{
	"prefetch=4/pool=false":  {FactPages: 1097, FactIOs: 302, BitmapPages: 88, BitmapIOs: 88, RowsRead: 104170},
	"prefetch=4/pool=true":   {FactPages: 1097, FactIOs: 302, BitmapPages: 88, BitmapIOs: 88, RowsRead: 104170, PoolHits: 209, PoolMisses: 181, PoolBytes: 2932736},
	"prefetch=32/pool=false": {FactPages: 1164, FactIOs: 92, BitmapPages: 88, BitmapIOs: 88, RowsRead: 104170},
	"prefetch=32/pool=true":  {FactPages: 1164, FactIOs: 92, BitmapPages: 88, BitmapIOs: 88, RowsRead: 104170, PoolHits: 84, PoolMisses: 96, PoolBytes: 3207168},
}

const regimeDeltaRows = 52043

// TestFaultOnSecondGranule corrupts, on disk, the first page of the second
// granule of a multi-granule fragment and runs a compressed bitmap
// selection with hits in every granule over it: the query fails with the
// typed checksum fault locating that granule, no pool entry stays pinned
// (the first granule's was, while the second was read), the same worker
// scratch then serves another fragment correctly — handed over directly,
// and recycled through the executor's scratch list, the failed query's
// dropped prefetch channels coming back — and once the page is repaired
// the same query is right: the pool never kept the bad granule.
func TestFaultOnSecondGranule(t *testing.T) {
	for _, async := range []bool{true, false} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			for _, pooled := range []bool{true, false} {
				t.Run(fmt.Sprintf("pool=%v", pooled), func(t *testing.T) {
					sched := exec.NewScheduler(1)
					defer sched.Close()
					be, dir, base, _, _ := regimeStore(t, BackendConfig{Compress: true, Sched: sched})
					var pool *BufPool
					if pooled {
						pool = NewBufPool(64 << 20)
					}
					be.Store.AttachPool(pool, 0)
					be.Bitmaps.AttachPool(pool, 0)
					be.Exec.PrefetchFact, be.Exec.AsyncPrefetch = 4, async
					built := 0
					be.Exec.solo = exec.NewScratch(func() *execScratch {
						built++
						return be.Exec.newScratch()
					})
					ctx := context.Background()

					bad, err := frag.ParseQuery(base.Star, "time::month=2, product::group=1, customer::retailer=2")
					if err != nil {
						t.Fatal(err)
					}
					other, err := frag.ParseQuery(base.Star, "time::month=3, product::group=1, customer::retailer=2")
					if err != nil {
						t.Fatal(err)
					}
					badID, otherID := be.Store.spec.FragmentIDs(bad)[0], be.Store.spec.FragmentIDs(other)[0]
					loc, _ := be.Store.Loc(badID)
					off := (loc.PageOff + 4) * int64(be.Store.pageSize)
					flip := func() {
						f, err := os.OpenFile(filepath.Join(dir, factFileName), os.O_RDWR, 0)
						if err != nil {
							t.Fatal(err)
						}
						defer f.Close()
						one := make([]byte, 1)
						if _, err := f.ReadAt(one, off); err != nil {
							t.Fatal(err)
						}
						one[0] ^= 0xFF
						if _, err := f.WriteAt(one, off); err != nil {
							t.Fatal(err)
						}
					}
					flip()

					_, _, err = be.Exec.ExecuteGroupedDeltas(ctx, bad, kernel.Deltas{})
					var fe *FaultError
					if !errors.As(err, &fe) {
						t.Fatalf("query over the corrupt granule returned %v, want *FaultError", err)
					}
					if fe.Kind != FaultChecksum || fe.File != "fact" || fe.Frag != badID || fe.Offset != off {
						t.Fatalf("fault %+v, want a checksum fault in fact fragment %d at offset %d", fe, badID, off)
					}
					if n := pinnedEntries(pool); n != 0 {
						t.Fatalf("%d pool entries left pinned after the fault", n)
					}

					// The scratch the failed query gave back serves the next one.
					got, st, err := be.Exec.ExecuteGroupedDeltas(ctx, other, kernel.Deltas{})
					if want := engine.Scan(base, other); err != nil || got.Aggregate != want || want.Count == 0 || st.FactIOs < 2 || built != 1 {
						t.Fatalf("next query on the recycled scratch (%d built): %+v / %+v, %v; oracle %+v", built, got.Aggregate, st, err, want)
					}

					// One scratch through the failure and on to the next fragment.
					plan, err := be.Bitmaps.ix.Plan(nil, bad)
					if err != nil {
						t.Fatal(err)
					}
					sc := be.Exec.newScratch()
					var p partial
					if err := be.Exec.processFragment(ctx, badID, plan, &p, sc, 0, nil); !errors.As(err, &fe) {
						t.Fatalf("fragment over the corrupt granule returned %v, want *FaultError", err)
					}
					p = partial{}
					if err := be.Exec.processFragment(ctx, otherID, plan, &p, sc, 0, nil); err != nil {
						t.Fatal(err)
					}
					if want := engine.Scan(base, other); p.fp.Agg != want || p.st.RowsRead != want.Count || p.st.FactIOs < 2 {
						t.Fatalf("next fragment on the same scratch: %+v / %+v, oracle %+v", p.fp.Agg, p.st, want)
					}
					if n := pinnedEntries(pool); n != 0 {
						t.Fatalf("%d pool entries left pinned after the next fragment", n)
					}

					flip() // repair
					got, _, err = be.Exec.ExecuteGroupedDeltas(ctx, bad, kernel.Deltas{})
					if err != nil {
						t.Fatal(err)
					}
					if want := engine.Scan(base, bad); got.Aggregate != want || want.Count == 0 || built != 1 {
						t.Fatalf("repaired fragment (%d scratches built): %+v, oracle %+v", built, got.Aggregate, want)
					}
				})
			}
		})
	}
}

// TestSteadyStateAllocation: the worker scratch — granule buffers,
// bitsets, prefetch channels — belongs to the executor, not to a call.
// On an unpooled store declustered over 4 disks, a warm serial stream of
// queries over 1 to 32 fragments of 13 pages each, half of them grouped,
// allocates per query a fraction of one 8-page granule buffer; when
// every call built its own scratch it was two such buffers for each of
// 4 workers. A compaction's executor starts with scratch lists of its
// own: no scratch crosses an epoch.
func TestSteadyStateAllocation(t *testing.T) {
	sched := exec.NewScheduler(4)
	defer sched.Close()
	cfg := BackendConfig{Compress: true, Sched: sched, Placement: alloc.Placement{Disks: 4, Scheme: alloc.RoundRobin, Staggered: true}}
	be, _, base, _, _ := regimeStore(t, cfg)
	ctx := context.Background()
	perQuery := func(be *Backend) uint64 {
		var qs []frag.Query
		for _, qt := range regimeQueries {
			for _, gb := range regimeGroupBys[:2] { // per-row grouping builds a map per fragment
				q, err := frag.ParseQuery(base.Star, qt+gb)
				if err != nil {
					t.Fatal(err)
				}
				qs = append(qs, q)
			}
		}
		run := func(rounds int) {
			for r := 0; r < rounds; r++ {
				for _, q := range qs {
					if _, _, err := be.Exec.ExecuteGroupedDeltas(ctx, q, kernel.Deltas{}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		run(5)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(20)
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(20*len(qs))
	}
	bound := uint64(be.Exec.PrefetchFact * be.Store.pageSize / 2)
	got := perQuery(be)
	t.Logf("%d bytes allocated per warm query", got)
	if got >= bound {
		t.Errorf("%d bytes allocated per warm query, want under half a granule buffer (%d)", got, bound)
	}
	next, err := be.Compact(t.TempDir(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if next.Exec.solo == be.Exec.solo || next.Exec.shared == be.Exec.shared {
		t.Fatal("the next epoch's executor borrows the old executor's scratch")
	}
	if got := perQuery(next); got >= bound {
		t.Errorf("next epoch: %d bytes allocated per warm query, want under half a granule buffer (%d)", got, bound)
	}
}
