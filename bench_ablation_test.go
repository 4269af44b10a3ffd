package mdhf

// Micro-benchmarks of the advisor, the in-memory engine and the core data
// structures. The simulated ablations (staggered vs co-located bitmaps,
// the prefetch granule) are golden files of internal/experiments, and the
// prime-disk counts are alloc's TestSection46GcdClustering.

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/engine"
)

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
