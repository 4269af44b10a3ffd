package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/schema"
)

// buildTiny builds an engine over the tiny schema with the given
// fragmentation text.
func buildTiny(t testing.TB, fragText string) (*schema.Star, *data.Table, *Engine) {
	t.Helper()
	s := schema.Tiny()
	tab := data.MustGenerate(s, 11)
	spec := frag.MustParse(s, fragText)
	icfg := make(frag.IndexConfig, len(s.Dims))
	for i := range s.Dims {
		if s.Dims[i].Name == schema.DimProduct || s.Dims[i].Name == schema.DimCustomer {
			icfg[i] = frag.IndexSpec{Kind: frag.EncodedIndex}
		} else {
			icfg[i] = frag.IndexSpec{Kind: frag.SimpleIndexes}
		}
	}
	e, err := Build(tab, spec, icfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, tab, e
}

// execute runs q's grand total alone on a scheduler of the given size
// (values below 1 mean GOMAXPROCS) that lives for the one call.
func execute(e *Engine, q frag.Query, workers int) (Aggregate, Stats, error) {
	s := exec.NewScheduler(workers)
	defer s.Close()
	q.GroupBy = nil // grouping never changes the grand total
	res, st, err := e.ExecuteGroupedDeltas(context.Background(), s, q, kernel.Deltas{})
	return res.Aggregate, st, err
}

// TestNilSchedulerIsAnError: the engine owns no pool, so every entry
// point refuses a nil scheduler with an error instead of dereferencing
// it.
func TestNilSchedulerIsAnError(t *testing.T) {
	_, _, e := buildTiny(t, "time::month, product::group")
	ctx, q := context.Background(), frag.Query{}
	if _, _, err := e.ExecuteGroupedDeltas(ctx, nil, q, kernel.Deltas{}); err == nil {
		t.Error("ExecuteGroupedDeltas accepted a nil scheduler")
	}
	if _, err := e.ExecuteSharedDeltas(ctx, nil, []frag.Query{q}, kernel.Deltas{}, nil); err == nil {
		t.Error("ExecuteSharedDeltas accepted a nil scheduler")
	}
}

func TestExecuteMatchesScanAllQueryShapes(t *testing.T) {
	s, tab, e := buildTiny(t, "time::month, product::group")
	// Exhaustive: every (dim, level, member) single-predicate query plus a
	// sample of two- and three-predicate queries.
	for di := range s.Dims {
		for li := 0; li < s.Dims[di].Depth(); li++ {
			for m := 0; m < s.Dims[di].Levels[li].Card; m++ {
				q := frag.Query{Preds: []frag.Pred{{Dim: di, Level: li, Member: m}}}
				got, _, err := execute(e, q, 4)
				if err != nil {
					t.Fatal(err)
				}
				want := Scan(tab, q)
				if got != want {
					t.Fatalf("query %v: got %+v, want %+v", q, got, want)
				}
			}
		}
	}
}

func TestExecuteMatchesScanRandomMultiPredicate(t *testing.T) {
	s, tab, e := buildTiny(t, "time::month, product::group")
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		var q frag.Query
		for di := range s.Dims {
			if rng.Intn(2) == 0 {
				continue
			}
			li := rng.Intn(s.Dims[di].Depth())
			q.Preds = append(q.Preds, frag.Pred{Dim: di, Level: li, Member: rng.Intn(s.Dims[di].Levels[li].Card)})
		}
		if len(q.Preds) == 0 {
			continue
		}
		got, _, err := execute(e, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if want := Scan(tab, q); got != want {
			t.Fatalf("iter %d query %v: got %+v, want %+v", iter, q, got, want)
		}
	}
}

func TestExecuteAcrossFragmentations(t *testing.T) {
	// The same queries must give identical answers under different
	// fragmentations (fragmentation is a physical design choice only).
	s := schema.Tiny()
	tab := data.MustGenerate(s, 11)
	icfg := make(frag.IndexConfig, len(s.Dims))
	for i := range s.Dims {
		icfg[i] = frag.IndexSpec{Kind: frag.EncodedIndex}
	}
	specs := []string{
		"time::month, product::group",
		"product::code",
		"customer::store",
		"time::quarter, product::class, customer::retailer",
	}
	pd := s.DimIndex(schema.DimProduct)
	td := s.DimIndex(schema.DimTime)
	group := s.Dims[pd].LevelIndex(schema.LvlGroup)
	month := s.Dims[td].LevelIndex(schema.LvlMonth)
	q := frag.Query{Preds: []frag.Pred{{Dim: td, Level: month, Member: 1}, {Dim: pd, Level: group, Member: 0}}}
	want := Scan(tab, q)
	for _, text := range specs {
		e, err := Build(tab, frag.MustParse(s, text), icfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := execute(e, q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: got %+v, want %+v", text, got, want)
		}
	}
}

func TestWorkConfinement(t *testing.T) {
	// Q1 query on both fragmentation attributes: exactly one fragment
	// visited, no bitmaps read, only that fragment's rows scanned.
	s, tab, e := buildTiny(t, "time::month, product::group")
	pd := s.DimIndex(schema.DimProduct)
	td := s.DimIndex(schema.DimTime)
	group := s.Dims[pd].LevelIndex(schema.LvlGroup)
	month := s.Dims[td].LevelIndex(schema.LvlMonth)

	q := frag.Query{Preds: []frag.Pred{{Dim: td, Level: month, Member: 2}, {Dim: pd, Level: group, Member: 1}}}
	agg, st, err := execute(e, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.FragmentsProcessed > 1 {
		t.Errorf("fragments processed = %d, want <= 1", st.FragmentsProcessed)
	}
	if st.BitmapsRead != 0 {
		t.Errorf("bitmaps read = %d, want 0 (Q1 needs no bitmaps)", st.BitmapsRead)
	}
	if agg.Count != st.RowsScanned {
		t.Errorf("rows scanned = %d but count = %d: Q1 must only touch relevant rows", st.RowsScanned, agg.Count)
	}
	if want := Scan(tab, q); agg != want {
		t.Errorf("got %+v, want %+v", agg, want)
	}
}

func TestWorkConfinementQ2UsesSuffixBitmaps(t *testing.T) {
	// A code query within a group-fragmented table reads only the suffix
	// bitmaps (class+code bits), not the full product index.
	s, tab, e := buildTiny(t, "time::month, product::group")
	pd := s.DimIndex(schema.DimProduct)
	code := s.Dims[pd].LevelIndex(schema.LvlCode)

	q := frag.Query{Preds: []frag.Pred{{Dim: pd, Level: code, Member: 3}}}
	agg, st, err := execute(e, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := Scan(tab, q); agg != want {
		t.Fatalf("got %+v, want %+v", agg, want)
	}
	// Tiny product: group(2) -> class(4) -> code(8): 1+1+1 = 3 bits total,
	// group prefix 1 bit, suffix 2 bits. Months = 4 fragments per group.
	months := s.Dim(schema.DimTime).LeafCard()
	wantBitmaps := int64(2 * months)
	if st.BitmapsRead != wantBitmaps {
		t.Errorf("bitmaps read = %d, want %d (2 suffix bits x %d fragments)", st.BitmapsRead, wantBitmaps, months)
	}
}

func TestUnsupportedQueryVisitsAllFragments(t *testing.T) {
	s, tab, e := buildTiny(t, "time::month, product::group")
	cd := s.DimIndex(schema.DimCustomer)
	store := s.Dims[cd].LevelIndex(schema.LvlStore)
	q := frag.Query{Preds: []frag.Pred{{Dim: cd, Level: store, Member: 2}}}
	agg, st, err := execute(e, q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := Scan(tab, q); agg != want {
		t.Fatalf("got %+v, want %+v", agg, want)
	}
	if st.FragmentsProcessed != len(e.frags) {
		t.Errorf("fragments processed = %d, want all %d", st.FragmentsProcessed, len(e.frags))
	}
}

func TestExecuteParallelismInvariance(t *testing.T) {
	s, _, e := buildTiny(t, "time::month, product::group")
	cd := s.DimIndex(schema.DimCustomer)
	ret := s.Dims[cd].LevelIndex(schema.LvlRetailer)
	q := frag.Query{Preds: []frag.Pred{{Dim: cd, Level: ret, Member: 1}}}
	base, _, err := execute(e, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 7, 16} {
		got, _, err := execute(e, q, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Fatalf("workers=%d: got %+v, want %+v", workers, got, base)
		}
	}
}

func TestExecuteValidatesQuery(t *testing.T) {
	_, _, e := buildTiny(t, "time::month, product::group")
	_, _, err := execute(e, frag.Query{Preds: []frag.Pred{{Dim: 99, Level: 0, Member: 0}}}, 1)
	if err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestBuildValidations(t *testing.T) {
	s := schema.Tiny()
	tab := data.MustGenerate(s, 1)
	other := schema.Tiny()
	spec := frag.MustParse(other, "time::month")
	icfg := make(frag.IndexConfig, len(s.Dims))
	if _, err := Build(tab, spec, icfg); err == nil {
		t.Fatal("mismatched schema accepted")
	}
	specOK := frag.MustParse(s, "time::month")
	if _, err := Build(tab, specOK, icfg[:1]); err == nil {
		t.Fatal("short index config accepted")
	}
}

func TestLeafLevelFragmentationEliminatesAllBitmapsOfDim(t *testing.T) {
	// Fragmenting product on its leaf: no product bitmaps exist, and code
	// queries still answer correctly via pure fragment confinement.
	s, tab, e := buildTiny(t, "product::code")
	pd := s.DimIndex(schema.DimProduct)
	code := s.Dims[pd].LevelIndex(schema.LvlCode)
	q := frag.Query{Preds: []frag.Pred{{Dim: pd, Level: code, Member: 5}}}
	agg, st, err := execute(e, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := Scan(tab, q); agg != want {
		t.Fatalf("got %+v, want %+v", agg, want)
	}
	if st.BitmapsRead != 0 {
		t.Errorf("bitmaps read = %d, want 0", st.BitmapsRead)
	}
	if agg.Count != st.RowsScanned {
		t.Errorf("scanned %d rows for %d hits", st.RowsScanned, agg.Count)
	}
}

func TestScaledSchemaEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("larger generation")
	}
	s := schema.APB1Scaled(60)
	tab := data.MustGenerate(s, 99)
	spec := frag.MustParse(s, "time::month, product::group")
	icfg := frag.APB1Indexes(s)
	e, err := Build(tab, spec, icfg)
	if err != nil {
		t.Fatal(err)
	}
	pd := s.DimIndex(schema.DimProduct)
	td := s.DimIndex(schema.DimTime)
	cd := s.DimIndex(schema.DimCustomer)
	queries := []frag.Query{
		{Preds: []frag.Pred{{Dim: td, Level: s.Dims[td].LevelIndex(schema.LvlMonth), Member: 5}}},
		{Preds: []frag.Pred{{Dim: cd, Level: s.Dims[cd].LevelIndex(schema.LvlStore), Member: 3}}},
		{Preds: []frag.Pred{{Dim: pd, Level: s.Dims[pd].LevelIndex(schema.LvlCode), Member: 77},
			{Dim: td, Level: s.Dims[td].LevelIndex(schema.LvlQuarter), Member: 2}}},
	}
	for _, q := range queries {
		got, _, err := execute(e, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if want := Scan(tab, q); got != want {
			t.Errorf("query %v: got %+v, want %+v", q, got, want)
		}
	}
}

// TestExecuteDeterministicAcrossWorkers asserts that the engine returns
// byte-identical Aggregate and Stats at every scheduler size: the sums
// the workers fold and the caller merges commute.
func TestExecuteDeterministicAcrossWorkers(t *testing.T) {
	s, _, e := buildTiny(t, "time::month, product::group")
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 50; iter++ {
		var q frag.Query
		for di := range s.Dims {
			if rng.Intn(2) == 0 {
				continue
			}
			li := rng.Intn(s.Dims[di].Depth())
			q.Preds = append(q.Preds, frag.Pred{Dim: di, Level: li, Member: rng.Intn(s.Dims[di].Levels[li].Card)})
		}
		if len(q.Preds) == 0 {
			continue
		}
		wantAgg, wantSt, err := execute(e, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8, 0} { // 0 = GOMAXPROCS default
			gotAgg, gotSt, err := execute(e, q, workers)
			if err != nil {
				t.Fatal(err)
			}
			if gotAgg != wantAgg || gotSt != wantSt {
				t.Fatalf("iter %d workers=%d: got %+v/%+v, want %+v/%+v",
					iter, workers, gotAgg, gotSt, wantAgg, wantSt)
			}
		}
	}
}

// TestExecuteContextCancellation asserts cancellation surfaces from the
// pool.
func TestExecuteContextCancellation(t *testing.T) {
	s, _, e := buildTiny(t, "time::month, product::group")
	cd := s.DimIndex(schema.DimCustomer)
	q := frag.Query{Preds: []frag.Pred{{Dim: cd, Level: s.Dims[cd].LevelIndex(schema.LvlStore), Member: 1}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sched := exec.NewScheduler(4)
	defer sched.Close()
	if _, _, err := e.ExecuteGroupedDeltas(ctx, sched, q, kernel.Deltas{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCompressedEngineDeterministicAcrossWorkers: the deprecated
// BuildCompressed alias still builds a working engine — Build's, with
// Bitset indices — whose answers and work counters are identical at
// every worker count and to Build's.
func TestCompressedEngineDeterministicAcrossWorkers(t *testing.T) {
	_, tab, e := buildTiny(t, "time::month, product::group")
	ce, err := BuildCompressed(tab, e.spec, e.icfg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := frag.ParseQuery(ce.star, "customer::store=3")
	if err != nil {
		t.Fatal(err)
	}
	wantAgg, wantSt, err := execute(e, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		gotAgg, gotSt, err := execute(ce, q, workers)
		if err != nil {
			t.Fatal(err)
		}
		if gotAgg != wantAgg || gotSt != wantSt {
			t.Fatalf("workers=%d diverged", workers)
		}
	}
}

// TestSteadyStateAllocation: a call owns neither its workers' scratch
// nor a result slot per fragment, and lists no fragment ids — its tasks
// compute them from the query's region. A warm serial stream of queries
// over all 192 fragments allocates per query only per-call state that
// does not grow with the fragments: 1,113 bytes measured (amd64, go1.24),
// under a ceiling of 1,400 with 25 % headroom. The gather alone used to
// cost a partial and an error slot, 104 bytes, per fragment, and the id
// list 8 more. The same holds for the bitmap-selecting fold — predicates
// below the fragmentation level, on a simple and on both kinds of encoded
// selection: 520 bytes over the 416 measured. That query touches one
// fragment and runs on its caller.
func TestSteadyStateAllocation(t *testing.T) {
	sched := exec.NewScheduler(4)
	defer sched.Close()
	ctx := context.Background()
	// warm returns the bytes one query allocates once the scratch is warm.
	warm := func(tab *data.Table, e *Engine, qs ...frag.Query) uint64 {
		t.Helper()
		run := func(rounds int) {
			for r := 0; r < rounds; r++ {
				for _, q := range qs {
					got, _, err := e.ExecuteGroupedDeltas(ctx, sched, q, kernel.Deltas{})
					if want := Scan(tab, q); err != nil || got.Aggregate != want {
						t.Fatalf("%+v, %v; want %+v", got.Aggregate, err, want)
					}
				}
			}
		}
		run(10)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(100)
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(100*len(qs))
	}

	s, tab, e := buildTiny(t, "time::month, product::code, customer::store")
	var all frag.Query
	n := len(e.spec.FragmentIDs(all))
	if n != 192 {
		t.Fatalf("%d fragments", n)
	}
	byQuarter, err := frag.ParseQuery(s, "group by time::quarter")
	if err != nil {
		t.Fatal(err)
	}
	got := warm(tab, e, all, byQuarter)
	t.Logf("%d bytes allocated per warm query over %d fragments", got, n)
	if got >= 1400 {
		t.Errorf("%d bytes allocated per warm query, want under 1400", got)
	}

	_, tab, e = buildTiny(t, "time::quarter, product::group")
	selecting, err := frag.ParseQuery(s, "time::month=1, product::code=3, customer::store=2")
	if err != nil {
		t.Fatal(err)
	}
	if cl := e.spec.Classify(selecting); cl == frag.Q1 || cl == frag.Q3 {
		t.Fatalf("class %v: the query selects no bitmap", cl)
	}
	const ceiling = 520 // per-call state only: no bitmap, operand or result buffer
	got = warm(tab, e, selecting)
	t.Logf("%d bytes allocated per warm bitmap-selecting query", got)
	if got >= ceiling {
		t.Errorf("%d bytes allocated per warm bitmap-selecting query, want under %d", got, ceiling)
	}
}
