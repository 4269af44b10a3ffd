package storage

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/schema"
)

// sharedQueries covers the paper's query classes under the month×group
// fragmentation, the match-everything query, and grouping on both the
// fragment-aligned and the per-row path.
var sharedQueries = []string{
	"time::month=1, product::group=1",
	"time::month=2, product::code=5",
	"time::quarter=1",
	"product::code=3",
	"customer::store=2",
	"",
	"time::month=1 group by product::group",
	"customer::retailer=1 group by time::month, product::class",
	"group by time::quarter, customer::store",
}

// tailDeltas routes rows [from, t.N()) of the table into sealed delta
// segments, one per touched fragment.
func tailDeltas(t *testing.T, spec *frag.Spec, icfg frag.IndexConfig, tab *data.Table, from int) kernel.Deltas {
	t.Helper()
	ix, err := frag.NewDeltaIndex(spec, icfg)
	if err != nil {
		t.Fatal(err)
	}
	builders := make(map[int64]*frag.SegmentBuilder)
	var order []int64
	buf := make([]int, len(tab.Dims))
	leaves := make([]int32, len(tab.Dims))
	for i := from; i < tab.N(); i++ {
		id := spec.ID(spec.CoordOf(tab.LeafMembers(i, buf)))
		sb, ok := builders[id]
		if !ok {
			sb = ix.NewSegment(id)
			builders[id] = sb
			order = append(order, id)
		}
		for d := range leaves {
			leaves[d] = tab.Dims[d][i]
		}
		sb.Add(leaves, tab.UnitsSold[i], tab.DollarSales[i], tab.Cost[i])
	}
	var set *frag.DeltaSet
	for seq, id := range order {
		set = set.With(builders[id].Seal(uint64(seq + 1)))
	}
	return kernel.Deltas{Ix: ix, Set: set}
}

// TestSharedEqualsSolo: every slot of a flattened Shared batch —
// result, partial and logical I/O statistics — is byte-identical to the
// same query's batch of one through ExecuteGroupedDeltas / Shared on the
// same scheduler, and its result to the ScanGrouped oracle over every
// fragment. K = 16 cycles the query list, so the batch holds duplicates;
// from K = 2 on one slot is invalid and must fail alone.
func TestSharedEqualsSolo(t *testing.T) {
	star := schema.Tiny()
	full := data.MustGenerate(star, 42)
	spec := frag.MustParse(star, "time::month, product::group")
	icfg := frag.APB1Indexes(star)
	nBase := full.N() * 2 / 3
	base := &data.Table{Star: star, Dims: make([][]int32, len(full.Dims)),
		UnitsSold: full.UnitsSold[:nBase], DollarSales: full.DollarSales[:nBase], Cost: full.Cost[:nBase]}
	for d := range full.Dims {
		base.Dims[d] = full.Dims[d][:nBase]
	}
	withDeltas := tailDeltas(t, spec, icfg, full, nBase)
	tables := map[string]*data.Table{"base": base, "deltas": full}
	queries := make([]frag.Query, len(sharedQueries))
	for i, text := range sharedQueries {
		var err error
		if queries[i], err = frag.ParseQuery(star, text); err != nil {
			t.Fatal(err)
		}
	}
	invalid := frag.Query{Preds: []frag.Pred{{Dim: 99}}}
	owns := map[string]func(int64) bool{"all": nil, "own": func(id int64) bool { return id%3 != 1 }}
	ctx := context.Background()

	for _, compress := range []bool{false, true} {
		for _, disks := range []int{0, 3} {
			for _, workers := range []int{1, 2, 7} {
				sched := exec.NewScheduler(workers)
				be, err := BuildBackend(t.TempDir(), base, spec, icfg, BackendConfig{Compress: compress, Sched: sched,
					Placement: alloc.Placement{Disks: disks, Scheme: alloc.RoundRobin, Staggered: true}})
				if err != nil {
					t.Fatal(err)
				}
				e := be.Exec
				for dname, deltas := range map[string]kernel.Deltas{"base": {}, "deltas": withDeltas} {
					for oname, own := range owns {
						for _, k := range []int{1, 2, 16} {
							name := fmt.Sprintf("compress=%v/disks=%d/workers=%d/%s/%s/K=%d", compress, disks, workers, dname, oname, k)
							batch := make([]frag.Query, k)
							for i := range batch {
								batch[i] = queries[i%len(queries)]
							}
							if k >= 2 {
								batch[1] = invalid
							}
							out, err := kernel.Flatten(e.Shared(ctx, batch, deltas, own))
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if len(out) != k {
								t.Fatalf("%s: %d results", name, len(out))
							}
							for i, q := range batch {
								got := out[i]
								alone, wantErr := kernel.Lone(e.Shared(ctx, []frag.Query{q}, deltas, own))
								wantPart, wantSt := alone.Part, alone.St
								if wantErr != nil {
									if got.Err == nil || got.Err.Error() != wantErr.Error() {
										t.Errorf("%s slot %d: err %v, alone %v", name, i, got.Err, wantErr)
									}
									continue
								}
								if got.Err != nil {
									t.Errorf("%s slot %d: %v", name, i, got.Err)
									continue
								}
								if !reflect.DeepEqual(got.Part, wantPart) || got.St != wantSt {
									t.Errorf("%s slot %d: partial %+v/%+v, alone %+v/%+v", name, i, got.Part, got.St, wantPart, wantSt)
								}
								if own == nil {
									wantRes, wantSt, err := e.ExecuteGroupedDeltas(ctx, q, deltas)
									if err != nil {
										t.Fatal(err)
									}
									oracle, _ := engine.ScanGrouped(tables[dname], q)
									if !reflect.DeepEqual(got.Res, wantRes) || got.St != wantSt || !reflect.DeepEqual(got.Res, oracle) {
										t.Errorf("%s slot %d: result %+v/%+v, alone %+v/%+v, oracle %+v", name, i, got.Res, got.St, wantRes, wantSt, oracle)
									}
								} else if got.Res.Aggregate != wantPart.Agg {
									t.Errorf("%s slot %d: result total %+v, alone partial %+v", name, i, got.Res.Aggregate, wantPart.Agg)
								}
								if got.Shared.Batched != k || (k == 1 && got.Shared != kernel.SharedScanStats{Batched: 1}) {
									t.Errorf("%s slot %d: shared stats %+v", name, i, got.Shared)
								}
							}
						}
					}
				}
				if err := be.Close(); err != nil {
					t.Fatal(err)
				}
				sched.Close()
			}
		}
	}
}

// TestSharedAllocatesPerCall pins "no allocation per fragment task": a
// warm, ungrouped 16-member batch whose union is every fragment of the
// Tiny store allocates at most one more outcome array per pool worker
// than one whose union is two fragments. (A union of one is a one-task
// call, which runs on its caller and skips the pool's dispatch, so it is
// logged but not compared.) Measured on amd64, go1.24: 40, 46 and 46
// mallocs over one, two and eight fragments. When each task grew its
// member list, slots, masks and stream counters anew and the plan kept a
// member map, the same batches took 105, 118 and 159.
func TestSharedAllocatesPerCall(t *testing.T) {
	const workers = 2
	star := schema.Tiny()
	spec := frag.MustParse(star, "time::month, product::group")
	sched := exec.NewScheduler(workers)
	defer sched.Close()
	be, err := BuildBackend(t.TempDir(), data.MustGenerate(star, 42), spec, frag.APB1Indexes(star), BackendConfig{Sched: sched})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	mallocs := func(frags int64, texts ...string) float64 {
		batch := make([]frag.Query, 16)
		for i := range batch {
			if batch[i], err = frag.ParseQuery(star, texts[i%len(texts)]); err != nil {
				t.Fatal(err)
			}
		}
		union := map[int64]bool{}
		for _, q := range batch {
			for _, id := range spec.FragmentIDs(q) {
				union[id] = true
			}
		}
		if n := len(union); int64(n) != frags {
			t.Fatalf("%q: a union of %d fragments, want %d", texts, n, frags)
		}
		run := func() {
			if _, err := be.Exec.Shared(context.Background(), batch, kernel.Deltas{}, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			run()
		}
		return testing.AllocsPerRun(100, run)
	}
	one := mallocs(1, "time::month=1, product::group=1", "time::month=1, product::code=5",
		"time::month=1, product::group=1, customer::store=2", "time::month=1, product::group=1, customer::retailer=1")
	two := mallocs(2, "time::month=1", "time::month=1, product::code=5",
		"time::month=1, customer::store=2", "time::month=1, customer::retailer=1")
	all := mallocs(spec.NumFragments(), "", "customer::store=2", "customer::retailer=1", "product::code=5")
	t.Logf("16-member batch: %.0f mallocs over one fragment, %.0f over two, %.0f over all %d", one, two, all, spec.NumFragments())
	if all > two+workers {
		t.Errorf("a union of every fragment took %.0f mallocs, two fragments %.0f: more than one per worker (%d) apart", all, two, workers)
	}
}

// BenchmarkSharedFold reports the CPU cost per batch member of sixteen
// mix.flash5-shaped queries over the serving benchmark's store
// (APB1Scaled(60), month × group, no disk delay, no pool, one worker):
// each as a batch of one, and all sixteen as one batch.
func BenchmarkSharedFold(b *testing.B) {
	star := schema.APB1Scaled(60)
	spec := frag.MustParse(star, "time::month, product::group")
	sched := exec.NewScheduler(1)
	defer sched.Close()
	be, err := BuildBackend(b.TempDir(), data.MustGenerate(star, 1), spec, frag.APB1Indexes(star), BackendConfig{Sched: sched})
	if err != nil {
		b.Fatal(err)
	}
	defer be.Close()
	qs := make([]frag.Query, 16)
	for i := range qs {
		text := [...]string{
			fmt.Sprintf("customer::store=%d", i%24),
			fmt.Sprintf("product::code=%d", i*31%480),
			fmt.Sprintf("time::quarter=%d", i%4),
			fmt.Sprintf("time::month=%d", i%12),
			fmt.Sprintf("product::group=%d, customer::store=%d", i%16, i%24),
		}[i%5]
		if qs[i], err = frag.ParseQuery(star, text); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"K=1", func() error {
			for i := range qs {
				if _, err := be.Exec.Shared(ctx, qs[i:i+1], kernel.Deltas{}, nil); err != nil {
					return err
				}
			}
			return nil
		}},
		{"K=16", func() error {
			_, err := be.Exec.Shared(ctx, qs, kernel.Deltas{}, nil)
			return err
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := tc.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(qs)), "us/member")
		})
	}
}
