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
// query's batch of one through ExecuteGroupedDeltas / Shared on the same
// scheduler, and its result to the ScanGrouped oracle over every
// fragment. K = 16 cycles the query list, so the batch holds duplicates;
// from K = 2 on one slot is invalid and must fail alone.
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
	tables := map[string]*data.Table{"base": base, "deltas": full}
	queries := make([]frag.Query, len(sharedQueries))
	for i, text := range sharedQueries {
		if queries[i], err = frag.ParseQuery(star, text); err != nil {
			t.Fatal(err)
		}
	}
	invalid := frag.Query{Preds: []frag.Pred{{Dim: 99}}}
	owns := map[string]func(int64) bool{"all": nil, "own": func(id int64) bool { return id%3 != 1 }}
	ctx := context.Background()

	e, err := Build(base, spec, icfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		sched := exec.NewScheduler(workers)
		for dname, deltas := range map[string]kernel.Deltas{"base": {}, "deltas": withDeltas} {
			for oname, own := range owns {
				for _, k := range []int{1, 2, 16} {
					name := fmt.Sprintf("workers=%d/%s/%s/K=%d", workers, dname, oname, k)
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
						alone, wantErr := kernel.Lone(e.Shared(ctx, sched, []frag.Query{q}, deltas, own))
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
							wantRes, wantSt, err := e.ExecuteGroupedDeltas(ctx, sched, q, deltas)
							if err != nil {
								t.Fatal(err)
							}
							oracle, _ := ScanGrouped(tables[dname], q)
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
		sched.Close()
	}
}

// TestSharedAllocatesPerCall pins "no allocation per fragment task": a
// warm, ungrouped 16-member batch whose union is every fragment of the
// Tiny engine allocates at most one more outcome array per pool worker
// than one whose union is two fragments. (A union of one is a one-task
// call, which runs on its caller and skips the pool's dispatch, so it is
// logged but not compared.) Measured on amd64, go1.24: 23, 29 and 29
// mallocs over one, two and eight fragments. When each task built its
// masks and slot list anew and the plan kept a member map, the same
// batches took 88, 101 and 142.
func TestSharedAllocatesPerCall(t *testing.T) {
	const workers = 2
	star := schema.Tiny()
	spec := frag.MustParse(star, "time::month, product::group")
	e, err := Build(data.MustGenerate(star, 42), spec, frag.APB1Indexes(star))
	if err != nil {
		t.Fatal(err)
	}
	sched := exec.NewScheduler(workers)
	defer sched.Close()
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
			if _, err := e.Shared(context.Background(), sched, batch, kernel.Deltas{}, nil); err != nil {
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
// mix.flash5-shaped queries over the serving benchmark's table
// (APB1Scaled(60), month × group, one worker): each as a batch of one,
// and all sixteen as one batch.
func BenchmarkSharedFold(b *testing.B) {
	star := schema.APB1Scaled(60)
	spec := frag.MustParse(star, "time::month, product::group")
	e, err := Build(data.MustGenerate(star, 1), spec, frag.APB1Indexes(star))
	if err != nil {
		b.Fatal(err)
	}
	sched := exec.NewScheduler(1)
	defer sched.Close()
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
				if _, err := e.Shared(ctx, sched, qs[i:i+1], kernel.Deltas{}, nil); err != nil {
					return err
				}
			}
			return nil
		}},
		{"K=16", func() error {
			_, err := e.Shared(ctx, sched, qs, kernel.Deltas{}, nil)
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
