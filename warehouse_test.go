package mdhf

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// warehouseQueries returns one query per paper class plus an unsupported
// one, deterministic for the schema.
func warehouseQueries(t testing.TB, star *Star) map[string]Query {
	t.Helper()
	gen := NewQueryGenerator(star, 7)
	out := map[string]Query{}
	for _, qt := range []QueryType{OneMonthOneGroup, OneMonth, OneCodeOneQuarter, OneCodeOneMonth, OneStore} {
		q, err := gen.Next(qt)
		if err != nil {
			t.Fatal(err)
		}
		out[qt.Name] = q
	}
	return out
}

// TestWarehouseBackendsMatchScan opens every backend combination over the
// same data and checks each result against the naive scan oracle, plus
// the unified Stats fields of each backend.
func TestWarehouseBackendsMatchScan(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	queries := warehouseQueries(t, star)

	cases := []struct {
		name string
		opts []Option
		kind BackendKind
	}{
		{"in-memory", nil, InMemoryBackend},
		{"in-memory/compressed", []Option{WithCompression()}, InMemoryBackend},
		{"on-disk", []Option{WithOnDisk("")}, OnDiskBackend},
		{"on-disk/compressed", []Option{WithOnDisk(""), WithCompression()}, OnDiskBackend},
		{"declustered", []Option{WithDisks(4, RoundRobin)}, DeclusteredBackend},
		{"declustered/gap/compressed", []Option{WithDisks(3, GapRoundRobin), WithCompression()}, DeclusteredBackend},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := Open(ctx, Config{
				Star:          star,
				Fragmentation: "time::month, product::group",
				Table:         tab,
			}, append([]Option{WithWorkers(4)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			for qname, q := range queries {
				agg, st, err := w.Query(q).Execute(ctx)
				if err != nil {
					t.Fatalf("%s: %v", qname, err)
				}
				if want := ScanAggregate(tab, q); agg.Aggregate != want {
					t.Fatalf("%s: got %+v, want %+v", qname, agg, want)
				}
				if st.Backend != tc.kind {
					t.Fatalf("%s: backend %s, want %s", qname, st.Backend, tc.kind)
				}
				if st.Workers != 4 {
					t.Fatalf("%s: workers %d, want 4", qname, st.Workers)
				}
				switch tc.kind {
				case InMemoryBackend:
					if st.Engine.FragmentsProcessed == 0 {
						t.Fatalf("%s: no engine work recorded", qname)
					}
				default:
					if st.IO.FactPages == 0 {
						t.Fatalf("%s: no physical I/O recorded", qname)
					}
				}
				if tc.kind == DeclusteredBackend && len(st.Disks) == 0 {
					t.Fatalf("%s: no per-disk stats on declustered backend", qname)
				}
			}
			if st := w.ServingStats(); st.QueriesAdmitted == 0 || st.InFlight != 0 {
				t.Fatalf("serving stats: %+v", st)
			}
		})
	}
}

// TestWarehouseConcurrentMatchesSerial is the serving guarantee: M
// goroutines hammering the declustered backend get results byte-identical
// to one-at-a-time execution, and the per-query IOStats match too. The
// goroutines start together and every read takes a simulated 200 µs, so
// their executions overlap however fast the host is.
func TestWarehouseConcurrentMatchesSerial(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	queries := warehouseQueries(t, star)

	w, err := Open(ctx, Config{
		Star:          star,
		Fragmentation: "time::month, product::group",
		Table:         tab,
	}, WithWorkers(4), WithDisks(4, RoundRobin), WithIODelay(200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	type result struct {
		agg Aggregate
		io  StorageIOStats
	}
	want := map[string]result{}
	for qname, q := range queries {
		agg, st, err := w.Query(q).Execute(ctx)
		if err != nil {
			t.Fatalf("serial %s: %v", qname, err)
		}
		want[qname] = result{agg: agg.Aggregate, io: st.IO}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	errc := make(chan error, goroutines*len(queries))
	for g := 0; g < goroutines; g++ {
		for qname, q := range queries {
			wg.Add(1)
			go func(qname string, q Query) {
				defer wg.Done()
				<-start
				for rep := 0; rep < 3; rep++ {
					agg, st, err := w.Query(q).Execute(ctx)
					if err != nil {
						errc <- fmt.Errorf("%s: %v", qname, err)
						return
					}
					if agg.Aggregate != want[qname].agg || st.IO != want[qname].io {
						errc <- fmt.Errorf("%s: concurrent result diverged: got %+v/%+v want %+v/%+v",
							qname, agg, st.IO, want[qname].agg, want[qname].io)
						return
					}
				}
			}(qname, q)
		}
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := w.ServingStats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight %d after drain", st.InFlight)
	}
	if st.PeakInFlight < 2 {
		t.Fatalf("peak in-flight %d: hammering never overlapped", st.PeakInFlight)
	}
}

// TestWarehouseExplain checks Explain unifies the three analytical views
// and needs no fact data, even at full APB-1 scale.
func TestWarehouseExplain(t *testing.T) {
	ctx := context.Background()
	star := APB1()
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group"},
		WithDisks(100, RoundRobin), WithIODelay(12*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	p, err := w.QueryText("product::code=11")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := p.Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	spec := w.Fragmentation()
	wantCost := EstimateCost(spec, w.Indexes(), p.Query(), DefaultCostParams())
	if ex.Cost != wantCost {
		t.Fatalf("Explain cost %+v != EstimateCost %+v", ex.Cost, wantCost)
	}
	if ex.Class != spec.Classify(p.Query()) {
		t.Fatalf("class %v", ex.Class)
	}
	if ex.Response.Response <= 0 || ex.Response.DisksUsed == 0 {
		t.Fatalf("response model missing: %+v", ex.Response)
	}
	if ex.Plan == nil {
		t.Fatal("no physical plan")
	}

	// ExplainAll returns in argument order.
	qs := []Query{p.Query()}
	for _, text := range []string{"customer::store=7", "time::month=3"} {
		q, err := ParseQuery(star, text)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	all, err := w.ExplainAll(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(qs) {
		t.Fatalf("got %d explains", len(all))
	}
	if all[0].Cost != wantCost {
		t.Fatal("ExplainAll order mismatch")
	}
}

// TestWarehouseAdvisory covers the advisory-only mode: no fragmentation,
// Advise works (and matches the legacy entry point), execution reports a
// clear error.
func TestWarehouseAdvisory(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	w, err := Open(ctx, Config{Star: star}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	gen := NewQueryGenerator(star, 1)
	var mix []WeightedQuery
	for _, qt := range []QueryType{OneMonth, OneStore} {
		q, err := gen.Next(qt)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, WeightedQuery{Name: qt.Name, Query: q, Weight: 0.5})
	}
	th := Thresholds{MinBitmapFragPages: 0, MaxFragments: MaxFragments(star, 1)}
	got := w.Advise(mix, th)
	want := Advise(star, w.Indexes(), mix, th, DefaultCostParams())
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("advise: %d candidates, legacy %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Spec.String() != want[i].Spec.String() || got[i].Work != want[i].Work {
			t.Fatalf("rank %d: %s (%.0f) != %s (%.0f)", i,
				got[i].Spec, got[i].Work, want[i].Spec, want[i].Work)
		}
	}

	q := mix[0].Query
	if _, _, err := w.Query(q).Execute(ctx); err == nil {
		t.Fatal("Execute without fragmentation succeeded")
	}
	if _, err := w.Query(q).Explain(ctx); err == nil {
		t.Fatal("Explain without fragmentation succeeded")
	}
}

// TestWarehouseSimulate runs queries through the SIMPAD backend.
func TestWarehouseSimulate(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultSimConfig()
	cfg.Disks, cfg.Nodes, cfg.TasksPerNode = 20, 4, 5
	w, err := Open(ctx, Config{Star: APB1(), Fragmentation: "time::month, product::group"},
		WithSimConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	q, err := ParseQuery(w.Star(), "time::month=3")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := w.Simulate(ctx, q, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].ResponseTime <= 0 {
		t.Fatalf("simulate: %+v", rs)
	}
	if MeanResponseTime(rs) <= 0 {
		t.Fatal("mean response")
	}
}

// TestWarehouseClose checks the lifecycle: Execute after Close fails with
// ErrClosed, Close is idempotent, and an owned temporary directory is
// removed.
func TestWarehouseClose(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	w, err := Open(ctx, Config{
		Star:          star,
		Fragmentation: "time::month",
		Table:         MustGenerateData(star, 8),
	}, WithOnDisk(""))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(star, "time::month=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Query(q).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	dir := w.store.RootDir()
	if dir == "" {
		t.Fatal("no backend dir recorded")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if _, _, err := w.Query(q).Execute(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Execute after Close: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("owned dir %s not removed: %v", dir, err)
	}
}

// TestWarehouseQueryText accepts both query notations.
func TestWarehouseQueryText(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	w, err := Open(ctx, Config{
		Star:          star,
		Fragmentation: "time::month, product::group",
		Table:         MustGenerateData(star, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	byIdx, err := w.QueryText("customer::store=3")
	if err != nil {
		t.Fatal(err)
	}
	byName, err := w.QueryText("customer.store = 'STORE-0003'")
	if err != nil {
		t.Fatal(err)
	}
	a1, _, err := byIdx.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := byName.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Aggregate != a2.Aggregate {
		t.Fatalf("notations diverge: %+v vs %+v", a1, a2)
	}
}

// TestWarehouseConfigErrors covers Open-time validation.
func TestWarehouseConfigErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := Open(ctx, Config{}); err == nil {
		t.Fatal("Open without star succeeded")
	}
	if _, err := Open(ctx, Config{Star: TinySchema(), Fragmentation: "bogus::level"}); err == nil {
		t.Fatal("Open with bad fragmentation succeeded")
	}
	if _, err := Open(ctx, Config{Star: TinySchema()}, WithDisks(-1, RoundRobin)); err == nil {
		t.Fatal("Open with negative disks succeeded")
	}
	// TinySchema returns a fresh *Star each call, so this table belongs
	// to a different schema instance than Config.Star.
	if _, err := Open(ctx, Config{Star: TinySchema(), Table: MustGenerateData(TinySchema(), 1)}); err == nil {
		t.Fatal("Open with mismatched table succeeded")
	}
	// Star inferred from Table.
	w, err := Open(ctx, Config{Table: MustGenerateData(TinySchema(), 8), Fragmentation: "time::month"})
	if err != nil {
		t.Fatal(err)
	}
	if w.Star() == nil {
		t.Fatal("star not inferred from table")
	}
	w.Close()
}

// TestExplainSubPageNote: when the fragmentation breaks threshold (i) —
// bitmap fragments under a page, the serving benchmark's baseline shape —
// Explain says so in words, and an on-disk warehouse counts bitmap I/O
// per allocation unit of the packed store it builds: one per subquery
// here, where EstimateCost (the paper's padded layout, which an
// in-memory warehouse keeps modelling) counts one per bitmap fragment.
func TestExplainSubPageNote(t *testing.T) {
	ctx := context.Background()
	star := APB1Scaled(60)
	cfg := Config{Star: star, Fragmentation: "time::month, product::group"}
	explain := func(cfg Config, text string, opts ...Option) (Explain, QueryCost) {
		t.Helper()
		w, err := Open(ctx, cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		p, err := w.QueryText(text)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := p.Explain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return ex, EstimateCost(w.Fragmentation(), w.Indexes(), p.Query(), DefaultCostParams())
	}

	ex, paper := explain(cfg, "customer::store=7", WithDisks(4, RoundRobin), WithCompression())
	for _, want := range []string{"0.03 pages", "15 of them share one allocation unit", "reads 1 unit(s) for its 5 bitmap fragment(s)", "MinBitmapFragPages: 1"} {
		if !strings.Contains(ex.Note, want) {
			t.Errorf("on-disk note %q lacks %q", ex.Note, want)
		}
	}
	if ex.Cost.BitmapIOs != ex.Cost.Fragments || ex.Cost.BitmapPages != ex.Cost.Fragments || ex.Response.Cost != ex.Cost {
		t.Errorf("on-disk cost %+v: want one one-page bitmap I/O per fragment", ex.Cost)
	}
	if paper.BitmapIOs != 5*paper.Fragments {
		t.Errorf("EstimateCost counts %d bitmap I/Os over %d fragments, want the padded layout's 5 each", paper.BitmapIOs, paper.Fragments)
	}
	spec, err := ParseFragmentation(star, cfg.Fragmentation)
	if err != nil {
		t.Fatal(err)
	}
	if (Thresholds{MinBitmapFragPages: 1}).Admissible(spec, nil) {
		t.Error("the note promises Advise would reject this fragmentation; the threshold admits it")
	}

	mem, paper := explain(cfg, "customer::store=7")
	if mem.Cost != paper || !strings.Contains(mem.Note, "padded to a page of its own") {
		t.Errorf("in-memory warehouse: cost %+v, want EstimateCost %+v; note %q", mem.Cost, paper, mem.Note)
	}

	// The paper's regime: nothing to say, and nothing changes.
	big, paper := explain(Config{Star: APB1(), Fragmentation: "time::month, product::group"}, "customer::store=7", WithDisks(4, RoundRobin))
	if big.Note != "" || big.Cost != paper {
		t.Errorf("paper regime: note %q, cost %+v, want none and EstimateCost %+v", big.Note, big.Cost, paper)
	}
}

// TestWarehouseReviewRegressions pins the fixes from this PR's review:
// ExplainAll respects the closed state instead of panicking, Class is
// graceful on advisory-only warehouses, Explain's model honours an
// explicit zero access time and stays host-independent, and the live
// disk accessors are safe concurrently with the first-Execute build.
func TestWarehouseReviewRegressions(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()

	t.Run("explainall-after-close", func(t *testing.T) {
		w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month"})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		q, err := ParseQuery(star, "time::month=1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.ExplainAll(ctx, []Query{q}); !errors.Is(err, ErrClosed) {
			t.Fatalf("ExplainAll after Close: %v, want ErrClosed", err)
		}
	})

	t.Run("class-advisory", func(t *testing.T) {
		w, err := Open(ctx, Config{Star: star})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		q, err := ParseQuery(star, "time::month=1")
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Query(q).Class(); got != Unsupported {
			t.Fatalf("Class on advisory warehouse = %v, want Unsupported", got)
		}
	})

	t.Run("explicit-zero-access-time", func(t *testing.T) {
		w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month"},
			WithDisks(4, RoundRobin), WithIODelay(0))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		q, err := ParseQuery(star, "customer::store=1")
		if err != nil {
			t.Fatal(err)
		}
		ex, err := w.Query(q).Explain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Response.Response != 0 {
			t.Fatalf("explicit zero access time modelled %v, want 0", ex.Response.Response)
		}
	})

	t.Run("accessors-race-first-execute", func(t *testing.T) {
		w, err := Open(ctx, Config{
			Star:          star,
			Fragmentation: "time::month",
			Table:         MustGenerateData(star, 8),
		}, WithDisks(2, RoundRobin), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		q, err := ParseQuery(star, "time::month=1")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		execErr := make(chan error, 1)
		go func() {
			defer wg.Done()
			_, _, err := w.Query(q).Execute(ctx) // triggers the lazy build
			execErr <- err
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				w.SetIODelay(0)
				w.DiskStats()
				w.ResetDiskStats()
			}
		}()
		wg.Wait()
		if err := <-execErr; err != nil {
			t.Fatal(err)
		}
	})
}
