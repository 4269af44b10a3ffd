package experiments

import (
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/frag"
	"repro/internal/schema"
	"repro/internal/simpad"
	"repro/internal/workload"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows, pattern := Table1()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	total := 0
	for _, r := range rows {
		if r.Bits != r.PaperBits {
			t.Errorf("level %s: %d bits, paper %d", r.Level, r.Bits, r.PaperBits)
		}
		total += r.Bits
	}
	if total != 15 {
		t.Errorf("total bits = %d, want 15", total)
	}
	if pattern != "dddllfffggcoooo" {
		t.Errorf("pattern = %q", pattern)
	}
	checkGolden(t, "table1.csv", table1Rows(rows))
	// Table 1's element counts.
	wantTotals := []int{8, 24, 120, 480, 960, 14400}
	wantWithin := []int{8, 3, 5, 4, 2, 15}
	for i, r := range rows {
		if r.TotalElements != wantTotals[i] || r.WithinParent != wantWithin[i] {
			t.Errorf("level %s: totals %d/%d, want %d/%d",
				r.Level, r.TotalElements, r.WithinParent, wantTotals[i], wantWithin[i])
		}
	}
}

func TestTable2CloseToPaper(t *testing.T) {
	cells := Table2()
	if len(cells) != 16 {
		t.Fatalf("cells = %d", len(cells))
	}
	checkGolden(t, "table2.csv", table2Rows(cells))
	exact, near := 0, 0
	for _, c := range cells {
		diff := c.Count - c.Paper
		if diff < 0 {
			diff = -diff
		}
		switch {
		case diff == 0:
			exact++
		case diff <= 3:
			near++
		default:
			t.Errorf("dims=%d min=%d: count %d vs paper %d (off by %d)",
				c.Dims, c.MinPages, c.Count, c.Paper, diff)
		}
	}
	// At least 11 of 16 cells must match exactly (table2.csv holds all
	// 16; the others hinge on the paper's unstated retailer cardinality
	// and rounding convention).
	if exact < 11 {
		t.Errorf("only %d cells exact, want >= 11 (near: %d)", exact, near)
	}
	// The "any" column is fully determined by the schema shape: all exact.
	for _, c := range cells {
		if c.MinPages == 0 && c.Count != c.Paper {
			t.Errorf("'any' column dims=%d: %d vs %d", c.Dims, c.Count, c.Paper)
		}
	}
}

func TestTable3ShapesHold(t *testing.T) {
	cols := Table3()
	checkGolden(t, "table3.csv", table3Rows(cols))
	opt, nosupp := cols[0], cols[1]
	if opt.Cost.Fragments != opt.PaperFragments {
		t.Errorf("Fopt fragments = %d, paper %d", opt.Cost.Fragments, opt.PaperFragments)
	}
	if nosupp.Cost.Fragments != nosupp.PaperFragments {
		t.Errorf("Fnosupp fragments = %d, paper %d", nosupp.Cost.Fragments, nosupp.PaperFragments)
	}
	// Exact reproduction of the bitmap I/O volume.
	if nosupp.Cost.BitmapPages != nosupp.PaperBitmapIO {
		t.Errorf("Fnosupp bitmap pages = %d, paper %d", nosupp.Cost.BitmapPages, nosupp.PaperBitmapIO)
	}
	// Orders-of-magnitude gap.
	ratio := nosupp.Cost.TotalMB() / opt.Cost.TotalMB()
	if ratio < 500 {
		t.Errorf("total I/O ratio = %.0f, want >= 500", ratio)
	}
	// Within 2x of the paper's absolute totals.
	if m := opt.Cost.TotalMB(); m < opt.PaperTotalMB/2 || m > opt.PaperTotalMB*2 {
		t.Errorf("Fopt total = %.1f MB, paper %.0f", m, opt.PaperTotalMB)
	}
	if m := nosupp.Cost.TotalMB(); m < nosupp.PaperTotalMB/2 || m > nosupp.PaperTotalMB*2 {
		t.Errorf("Fnosupp total = %.1f MB, paper %.0f", m, nosupp.PaperTotalMB)
	}
}

func TestTable6MatchesPaper(t *testing.T) {
	rows := Table6()
	checkGolden(t, "table6.csv", table6Rows(rows))
	for _, r := range rows {
		if r.Fragments != r.PaperFragments {
			t.Errorf("%s: fragments %d, paper %d", r.Fragmentation, r.Fragments, r.PaperFragments)
		}
		rel := r.BitmapFragPages / r.PaperBitmapFragPages
		if rel < 0.9 || rel > 1.1 {
			t.Errorf("%s: bitmap fragment %.2f pages, paper %.2f", r.Fragmentation, r.BitmapFragPages, r.PaperBitmapFragPages)
		}
	}
}

func TestBitmapInventory(t *testing.T) {
	inv := Bitmaps()
	if inv.MaxBitmaps != 76 {
		t.Errorf("max bitmaps = %d, want 76", inv.MaxBitmaps)
	}
	if inv.SurvivingUnderFMonthGroup != 32 {
		t.Errorf("surviving = %d, want 32", inv.SurvivingUnderFMonthGroup)
	}
}

func TestFigure4ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	fig := Figure4(Options{Seed: 1})
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	checkGolden(t, "figure4.csv", figureRows(fig))
	// Response times decrease with p on every curve.
	for _, s := range fig.Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].ResponseTime >= s.Points[i-1].ResponseTime {
				t.Errorf("%s: response time not decreasing at p=%g", s.Label, s.Points[i].X)
			}
		}
	}
	// The three t=4 curves coincide (CPU-bound: independent of d) at the
	// shared processor counts. Compare d=20 p=10 vs d=60 p=... they share
	// no p. Instead check d=60 and d=100 at p=5..: only d=100 has p=5.
	// Check that at p=10 (d=20) and p=10 (d=100) times are close.
	var p10 []float64
	for _, s := range fig.Series[:3] {
		for _, pt := range s.Points {
			if pt.X == 10 {
				p10 = append(p10, pt.ResponseTime)
			}
		}
	}
	if len(p10) >= 2 {
		ratio := p10[0] / p10[1]
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("1MONTH at p=10 differs across d: %v", p10)
		}
	}
	// The t=5 fix at d=100, p=50 beats t=4 (the paper's batching point).
	var t4, t5 float64
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if pt.X == 50 {
				if s.Label == "d = 100 (t=4)" {
					t4 = pt.ResponseTime
				}
				if s.Label == "d = 100 (t=5)" {
					t5 = pt.ResponseTime
				}
			}
		}
	}
	if t4 == 0 || t5 == 0 || t5 >= t4 {
		t.Errorf("t=5 (%.2fs) should beat t=4 (%.2fs) at p=50", t5, t4)
	}
	// Near-linear speed-up: d=20 curve spans p=1..10.
	for _, s := range fig.Series[:1] {
		last := s.Points[len(s.Points)-1]
		if last.Speedup < 0.75*last.X || last.Speedup > 1.3*last.X {
			t.Errorf("%s: speed-up %.1f at p=%g, want near-linear", s.Label, last.Speedup, last.X)
		}
	}
}

func TestFigure3ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	t.Parallel() // the slowest simulations: overlap them on a second CPU
	fig := Figure3(Options{Seed: 1})
	if len(fig.Series) != 5 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	checkGolden(t, "figure3.csv", figureRows(fig))
	for _, s := range fig.Series {
		if len(s.Points) != 3 {
			t.Fatalf("%s: %d points", s.Label, len(s.Points))
		}
		// Response time determined by d: decreasing in d.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].ResponseTime >= s.Points[i-1].ResponseTime {
				t.Errorf("%s: not decreasing at d=%g", s.Label, s.Points[i].X)
			}
		}
		// Speed-up at d=100 vs d=20 near-linear (5) or slightly above.
		last := s.Points[len(s.Points)-1]
		if last.Speedup < 4 || last.Speedup > 7.5 {
			t.Errorf("%s: speed-up %.2f at d=100, want ~5-6", s.Label, last.Speedup)
		}
	}
	// Curves for different p coincide (disk-bound): compare d=100 points.
	min, max := 1e18, 0.0
	for _, s := range fig.Series {
		rt := s.Points[2].ResponseTime
		if rt < min {
			min = rt
		}
		if rt > max {
			max = rt
		}
	}
	if max/min > 1.3 {
		t.Errorf("d=100 response times vary %.2fx across p; 1STORE should be disk-bound", max/min)
	}
}

func TestFigureParallelWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	// Each data point is an independent deterministic simulation, so a
	// figure regenerated on 4 workers must be identical to the sequential
	// one — series, points, response times, speed-ups.
	seq := Figure6CodeQuarter(Options{Seed: 1})
	par := Figure6CodeQuarter(Options{Seed: 1, Workers: 4})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel figure differs:\nseq %+v\npar %+v", seq, par)
	}
	checkGolden(t, "figure6_code_quarter.csv", figureRows(seq))
}

func TestFigure5ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	t.Parallel()
	fig := Figure5(Options{Seed: 1})
	checkGolden(t, "figure5.csv", figureRows(fig))
	gain := func(x float64) float64 {
		return 1 - point(t, fig, "parallel I/O", x).ResponseTime/point(t, fig, "non-parallel I/O", x).ResponseTime
	}
	// Reading a subquery's bitmap fragments from their staggered disks in
	// parallel never slows the query, and pays most where few subqueries
	// run per node and the disks are idle: 15.7 % at t = 1.
	for _, p := range fig.Series[0].Points {
		if g := gain(p.X); g <= 0 {
			t.Errorf("t = %g: parallel bitmap I/O %.1f %% faster, want > 0", p.X, 100*g)
		}
	}
	if g := gain(1); g < 0.10 {
		t.Errorf("t = 1: parallel bitmap I/O %.1f %% faster, want >= 10 %%", 100*g)
	}
	if gain(13) >= gain(1)/2 {
		t.Errorf("gain at t = 13 (%.1f %%) should be well below t = 1's (%.1f %%): the disks bound both",
			100*gain(13), 100*gain(1))
	}
	// More subqueries per node help until the disks saturate, near t = 5;
	// after that the curves stay flat.
	for _, s := range fig.Series {
		best := s.Points[0].ResponseTime
		for _, p := range s.Points {
			best = min(best, p.ResponseTime)
		}
		for _, p := range s.Points {
			if p.X >= 5 && p.ResponseTime > 1.1*best {
				t.Errorf("%s: %.1f s at t = %g, more than 10 %% above the best %.1f s", s.Label, p.ResponseTime, p.X, best)
			}
		}
		if s.Points[0].ResponseTime < 4*best {
			t.Errorf("%s: t = 1 at %.1f s is not 4x the best %.1f s", s.Label, s.Points[0].ResponseTime, best)
		}
	}
}

func TestFigure6StoreShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	t.Parallel()
	fig := Figure6Store(Options{Seed: 1})
	checkGolden(t, "figure6_store.csv", figureRows(fig))
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	// 1STORE touches every fragment, one subquery each (Table 6).
	for i, want := range []int{11_520, 23_040, 345_600} {
		for _, p := range fig.Series[i].Points {
			if p.Subqueries != want {
				t.Errorf("%s at %g: %d subqueries, want %d", fig.Series[i].Label, p.X, p.Subqueries, want)
			}
		}
	}
	// Every fragmentation gains from parallelism, and at every degree the
	// finer the fragmentation the slower the query: the code
	// fragmentation's 0.16-page bitmap fragments turn its bitmap I/O into
	// many small reads (at 160: 363.1 s against the group one's 112.5 s).
	for _, s := range fig.Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].ResponseTime >= s.Points[i-1].ResponseTime {
				t.Errorf("%s: not decreasing at %g", s.Label, s.Points[i].X)
			}
		}
	}
	for i, dop := range []float64{20, 40, 80, 160} {
		g, c, k := fig.Series[0].Points[i], fig.Series[1].Points[i], fig.Series[2].Points[i]
		if !(g.ResponseTime < c.ResponseTime && c.ResponseTime < k.ResponseTime) {
			t.Errorf("at %g: group %.1f s, class %.1f s, code %.1f s, want increasing", dop, g.ResponseTime, c.ResponseTime, k.ResponseTime)
		}
		if c.ResponseTime > 1.1*g.ResponseTime {
			t.Errorf("at %g: class %.1f s more than 10 %% above group %.1f s", dop, c.ResponseTime, g.ResponseTime)
		}
	}
	if g, k := point(t, fig, "product group fragmentation", 160), point(t, fig, "product code fragmentation", 160); k.ResponseTime < 2.5*g.ResponseTime {
		t.Errorf("at 160: code %.1f s, group %.1f s, want code >= 2.5x group", k.ResponseTime, g.ResponseTime)
	}
}

// ablationPoint simulates one 1STORE query under FMonthGroup on the Table
// 4 system after mutate has changed its configuration or placement.
func ablationPoint(t *testing.T, x float64, mutate func(*simpad.Config, *alloc.Placement)) Point {
	t.Helper()
	star := schema.APB1()
	icfg := frag.APB1Indexes(star)
	spec := frag.MustParse(star, "time::month, product::group")
	cfg := simpad.DefaultConfig()
	pl := alloc.Placement{Disks: cfg.Disks, Scheme: alloc.RoundRobin, Staggered: true}
	mutate(&cfg, &pl)
	sys, err := simpad.NewSystem(cfg, icfg, pl, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := workload.NewGenerator(star, 1).Next(workload.OneStore)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run([]*simpad.Plan{simpad.NewPlan(spec, icfg, q, cfg)})[0]
	return Point{X: x, ResponseTime: r.ResponseTime, Subqueries: r.Subqueries, DiskOps: r.DiskOps, Events: r.Events}
}

// TestAblationsHold simulates the design choices behind the figures:
// Figure 2's staggered bitmap placement against co-locating every bitmap
// fragment with its fact fragment (at t = 2), and the fact prefetch
// granule around the paper's 8 pages (Section 4.4).
func TestAblationsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	t.Parallel()
	placement := func(staggered bool) func(*simpad.Config, *alloc.Placement) {
		return func(c *simpad.Config, p *alloc.Placement) {
			c.TasksPerNode = 2
			p.Staggered = staggered
		}
	}
	staggered := Series{Label: "staggered bitmaps (t)", Points: []Point{ablationPoint(t, 2, placement(true))}}
	colocated := Series{Label: "co-located bitmaps (t)", Points: []Point{ablationPoint(t, 2, placement(false))}}
	prefetch := Series{Label: "fact prefetch granule (pages)"}
	for _, g := range []int{1, 8, 32} {
		prefetch.Points = append(prefetch.Points, ablationPoint(t, float64(g), func(c *simpad.Config, _ *alloc.Placement) {
			c.PrefetchFact = g
		}))
	}
	for _, s := range []*Series{&staggered, &colocated, &prefetch} {
		annotateSpeedup(s)
	}
	checkGolden(t, "ablations.csv", figureRows(Figure{Series: []Series{staggered, colocated, prefetch}}))
	// Staggering is what lets a subquery's bitmap reads overlap.
	if s, c := staggered.Points[0].ResponseTime, colocated.Points[0].ResponseTime; s >= c {
		t.Errorf("staggered %.1f s, co-located %.1f s: staggering should win", s, c)
	}
	// A larger granule reads a fragment's hit pages in fewer operations.
	for i := 1; i < len(prefetch.Points); i++ {
		if prefetch.Points[i].DiskOps >= prefetch.Points[i-1].DiskOps {
			t.Errorf("prefetch %g pages: %d disk ops, not below %d", prefetch.Points[i].X, prefetch.Points[i].DiskOps, prefetch.Points[i-1].DiskOps)
		}
	}
}
