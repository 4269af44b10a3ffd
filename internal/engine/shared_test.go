package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

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

// TestSharedEqualsSolo: every slot of an ExecuteSharedDeltas batch —
// result, partial and logical statistics — is byte-identical to the same
// query run alone through ExecuteGroupedDeltas / ExecutePartialDeltas on
// the same scheduler. K = 1 pins that a lone batch member is exactly a
// solo execution; K = 16 cycles the query list, so the batch holds
// duplicates; from K = 2 on one slot is invalid and must fail alone.
func TestSharedEqualsSolo(t *testing.T) {
	star := schema.Tiny()
	full := data.MustGenerate(star, 42)
	spec := frag.MustParse(star, "time::month, product::group")
	icfg := frag.APB1Indexes(star)
	base, extra := splitTable(full, full.N()*2/3)
	ix, err := frag.NewDeltaIndex(spec, icfg)
	if err != nil {
		t.Fatal(err)
	}
	withDeltas := kernel.Deltas{Ix: ix, Set: deltasOf(t, spec, ix, extra, 3)}
	queries := make([]frag.Query, len(sharedQueries))
	for i, text := range sharedQueries {
		if queries[i], err = frag.ParseQuery(star, text); err != nil {
			t.Fatal(err)
		}
	}
	invalid := frag.Query{Preds: []frag.Pred{{Dim: 99}}}
	owns := map[string]func(int64) bool{"all": nil, "own": func(id int64) bool { return id%3 != 1 }}
	ctx := context.Background()

	for _, compressed := range []bool{false, true} {
		build := Build
		if compressed {
			build = BuildCompressed
		}
		e, err := build(base, spec, icfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 7} {
			sched := exec.NewScheduler(workers)
			for dname, deltas := range map[string]kernel.Deltas{"base": {}, "deltas": withDeltas} {
				for oname, own := range owns {
					for _, k := range []int{1, 2, 16} {
						name := fmt.Sprintf("compressed=%v/workers=%d/%s/%s/K=%d", compressed, workers, dname, oname, k)
						batch := make([]frag.Query, k)
						for i := range batch {
							batch[i] = queries[i%len(queries)]
						}
						if k >= 2 {
							batch[1] = invalid
						}
						out, err := e.ExecuteSharedDeltas(ctx, sched, batch, deltas, own)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if len(out) != k {
							t.Fatalf("%s: %d results", name, len(out))
						}
						for i, q := range batch {
							got := out[i]
							wantPart, wantSt, wantErr := e.ExecutePartialDeltas(ctx, sched, q, deltas, own)
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
								wantRes, wantSt, err := e.ExecuteGroupedDeltas(ctx, sched, q, deltas)
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
			sched.Close()
		}
	}
}
