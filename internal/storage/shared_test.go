package storage

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/data"
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

// TestSharedEqualsSolo: every slot of an ExecuteSharedDeltas batch —
// result, partial and logical I/O statistics — is byte-identical to the
// same query run alone through ExecuteGroupedDeltas /
// ExecutePartialDeltas on the same scheduler. K = 1 pins that a lone
// batch member is exactly a solo execution; K = 16 cycles the query list,
// so the batch holds duplicates; from K = 2 on one slot is invalid and
// must fail alone.
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
							out, err := e.ExecuteSharedDeltas(ctx, batch, deltas, own)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if len(out) != k {
								t.Fatalf("%s: %d results", name, len(out))
							}
							for i, q := range batch {
								got := out[i]
								wantPart, wantSt, wantErr := e.ExecutePartialDeltas(ctx, q, deltas, own)
								if wantErr != nil {
									if got.Err == nil || got.Err.Error() != wantErr.Error() {
										t.Errorf("%s slot %d: err %v, solo %v", name, i, got.Err, wantErr)
									}
									continue
								}
								if got.Err != nil {
									t.Errorf("%s slot %d: %v", name, i, got.Err)
									continue
								}
								if !reflect.DeepEqual(got.Part, wantPart) || got.St != wantSt {
									t.Errorf("%s slot %d: partial %+v/%+v, solo %+v/%+v", name, i, got.Part, got.St, wantPart, wantSt)
								}
								if own == nil {
									wantRes, wantSt, err := e.ExecuteGroupedDeltas(ctx, q, deltas)
									if err != nil {
										t.Fatal(err)
									}
									if !reflect.DeepEqual(got.Res, wantRes) || got.St != wantSt {
										t.Errorf("%s slot %d: result %+v/%+v, solo %+v/%+v", name, i, got.Res, got.St, wantRes, wantSt)
									}
								} else if got.Res.Aggregate != wantPart.Agg {
									t.Errorf("%s slot %d: result total %+v, solo partial %+v", name, i, got.Res.Aggregate, wantPart.Agg)
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
