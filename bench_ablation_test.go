package mdhf

// Ablation benchmarks for the design choices DESIGN.md §6 calls out:
// staggered vs co-located bitmap allocation, prefetch granule sensitivity,
// prime-disk declustering, and the gap allocation scheme. Plus
// micro-benchmarks of the core data structures.

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/simpad"
)

func simStoreOnce(b *testing.B, mutate func(*SimConfig, *Placement)) float64 {
	b.Helper()
	star := APB1()
	icfg := APB1Indexes(star)
	spec, err := ParseFragmentation(star, "time::month, product::group")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSimConfig()
	placement := Placement{Disks: cfg.Disks, Scheme: RoundRobin, Staggered: true}
	mutate(&cfg, &placement)
	placement.Disks = cfg.Disks
	sys, err := simpad.NewSystem(cfg, icfg, placement, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen := NewQueryGenerator(star, 1)
	q, err := gen.Next(OneStore)
	if err != nil {
		b.Fatal(err)
	}
	rs := sys.Run([]*SimPlan{simpad.NewPlan(spec, icfg, q, cfg)})
	return rs[0].ResponseTime
}

// BenchmarkAblationStaggeredVsColocated quantifies Figure 5's premise: the
// staggered allocation enables parallel bitmap I/O; co-locating all bitmap
// fragments with their fact fragment serialises it.
func BenchmarkAblationStaggeredVsColocated(b *testing.B) {
	var staggered, colocated float64
	for i := 0; i < b.N; i++ {
		staggered = simStoreOnce(b, func(c *SimConfig, p *Placement) {
			c.TasksPerNode = 2
			p.Staggered = true
		})
		colocated = simStoreOnce(b, func(c *SimConfig, p *Placement) {
			c.TasksPerNode = 2
			p.Staggered = false
		})
	}
	b.ReportMetric(staggered, "s-staggered")
	b.ReportMetric(colocated, "s-colocated")
}

// BenchmarkAblationPrefetchGranule sweeps the fact prefetch size around the
// paper's 8 pages (Section 4.4's threshold driver).
func BenchmarkAblationPrefetchGranule(b *testing.B) {
	var t1, t8, t32 float64
	for i := 0; i < b.N; i++ {
		t1 = simStoreOnce(b, func(c *SimConfig, p *Placement) { c.PrefetchFact = 1 })
		t8 = simStoreOnce(b, func(c *SimConfig, p *Placement) { c.PrefetchFact = 8 })
		t32 = simStoreOnce(b, func(c *SimConfig, p *Placement) { c.PrefetchFact = 32 })
	}
	b.ReportMetric(t1, "s-prefetch1")
	b.ReportMetric(t8, "s-prefetch8")
	b.ReportMetric(t32, "s-prefetch32")
}

// BenchmarkAblationPrimeDisks quantifies the Section 4.6 gcd clustering for
// the 1CODE query: 100 disks leave only 5 usable; 101 (prime) or the gap
// scheme restore parallelism.
func BenchmarkAblationPrimeDisks(b *testing.B) {
	star := APB1()
	spec, err := ParseFragmentation(star, "time::month, product::group")
	if err != nil {
		b.Fatal(err)
	}
	q, err := ParseQuery(star, "product::code=77")
	if err != nil {
		b.Fatal(err)
	}
	var d100, d101, gap int
	for i := 0; i < b.N; i++ {
		d100 = DisksUsed(spec, q, Placement{Disks: 100, Scheme: RoundRobin})
		d101 = DisksUsed(spec, q, Placement{Disks: 101, Scheme: RoundRobin})
		gap = DisksUsed(spec, q, Placement{Disks: 100, Scheme: GapRoundRobin})
	}
	b.ReportMetric(float64(d100), "disks-rr100")
	b.ReportMetric(float64(d101), "disks-prime101")
	b.ReportMetric(float64(gap), "disks-gap100")
}

// BenchmarkAdvisor measures the full Section 4.7 guideline pipeline:
// enumerate 167 options, filter by thresholds, rank by total work.
func BenchmarkAdvisor(b *testing.B) {
	star := APB1()
	icfg := APB1Indexes(star)
	gen := NewQueryGenerator(star, 2)
	q1, _ := gen.Next(OneMonthOneGroup)
	q2, _ := gen.Next(OneStore)
	q3, _ := gen.Next(OneCodeOneQuarter)
	mix := []WeightedQuery{
		{Name: "1MONTH1GROUP", Query: q1, Weight: 0.5},
		{Name: "1STORE", Query: q2, Weight: 0.3},
		{Name: "1CODE1QUARTER", Query: q3, Weight: 0.2},
	}
	th := Thresholds{MinBitmapFragPages: 1, MaxFragments: MaxFragments(star, 1), MinFragments: 100}
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = len(Advise(star, icfg, mix, th, DefaultCostParams()))
	}
	b.ReportMetric(float64(n), "admissible-candidates")
}

// BenchmarkEngineQuery measures real (non-simulated) parallel star query
// execution over generated data at reduced scale.
func BenchmarkEngineQuery(b *testing.B) {
	star := APB1Scaled(60)
	tab, err := GenerateData(star, 3)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := ParseFragmentation(star, "time::month, product::group")
	if err != nil {
		b.Fatal(err)
	}
	icfg := APB1Indexes(star)
	eng, err := engine.Build(tab, spec, icfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := NewQueryGenerator(star, 7)
	q, err := gen.Next(OneStore)
	if err != nil {
		b.Fatal(err)
	}
	sched := newSched(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engineTotal(eng, sched, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitmapAnd measures raw bitmap intersection throughput — the
// inner loop of star join processing (Section 3.2).
func BenchmarkBitmapAnd(b *testing.B) {
	const n = 1 << 20
	x := bitmap.New(n)
	y := bitmap.New(n)
	for i := 0; i < n; i += 3 {
		x.Set(i)
	}
	for i := 0; i < n; i += 5 {
		y.Set(i)
	}
	b.SetBytes(n / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := bitmap.New(n)
		z.CopyFrom(x)
		z.And(y)
	}
}

// BenchmarkEncodedSelect measures encoded-index selections at group level
// (10 of 15 bitmaps, Table 1).
func BenchmarkEncodedSelect(b *testing.B) {
	star := APB1()
	p := star.Dim("product")
	layout := bitmap.NewLayout(p, nil)
	values := make([]int32, 200_000)
	for i := range values {
		values[i] = int32(i * 7 % p.LeafCard())
	}
	idx := bitmap.NewEncodedIndex(layout, values)
	group := p.LevelIndex("group")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, _ := idx.Select(group, i%480)
		_ = sel
	}
}

// BenchmarkFragmentLookup measures query-to-fragment confinement (the
// planner's hot path).
func BenchmarkFragmentLookup(b *testing.B) {
	star := APB1()
	spec, err := ParseFragmentation(star, "time::month, product::group")
	if err != nil {
		b.Fatal(err)
	}
	gen := NewQueryGenerator(star, 5)
	q, err := gen.Next(OneCodeOneQuarter)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := spec.FragmentIDs(q)
		if len(ids) != 3 {
			b.Fatal("unexpected fragment count")
		}
	}
}

// BenchmarkTable2Enumeration measures fragmentation-option enumeration.
func BenchmarkTable2Enumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiments.Table2()
		if len(cells) != 16 {
			b.Fatal("bad cell count")
		}
	}
}
