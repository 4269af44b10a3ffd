package mdhf

// Benchmarks for the implemented future-work extensions: multi-user mode,
// clustering granules, Shared Nothing, skewed generation, WAH compression,
// and the on-disk storage executor.

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/experiments"
	"repro/internal/storage"
	"repro/internal/workload"
)

// BenchmarkExtMultiUser measures mean 1MONTH response times under 1, 2, 4
// and 8 concurrent query streams (multi-user mode, Section 7 future work).
func BenchmarkExtMultiUser(b *testing.B) {
	var s experiments.Series
	for i := 0; i < b.N; i++ {
		s = experiments.MultiUser(workload.OneMonth, []int{1, 2, 4, 8}, 1, 1)
	}
	for _, pt := range s.Points {
		switch pt.X {
		case 1:
			b.ReportMetric(pt.ResponseTime, "s-1stream")
		case 8:
			b.ReportMetric(pt.ResponseTime, "s-8streams")
		}
	}
}

// BenchmarkExtClusteringGranules measures the Section 6.3 fix: 1STORE
// under FMonthCode with clustering granules of 1, 6 and 30 fragments.
func BenchmarkExtClusteringGranules(b *testing.B) {
	if testing.Short() {
		b.Skip("full-scale simulation")
	}
	var s experiments.Series
	for i := 0; i < b.N; i++ {
		s = experiments.Clustering([]int{1, 6, 30}, 1)
	}
	for _, pt := range s.Points {
		switch pt.X {
		case 1:
			b.ReportMetric(pt.ResponseTime, "s-unclustered")
		case 30:
			b.ReportMetric(pt.ResponseTime, "s-cluster30")
		}
	}
}

// BenchmarkExtSharedNothing compares Shared Disk and Shared Nothing for
// the CPU-bound 1MONTH query.
func BenchmarkExtSharedNothing(b *testing.B) {
	var sd, sn float64
	for i := 0; i < b.N; i++ {
		sd, sn = experiments.ArchComparison(workload.OneMonth, 1)
	}
	b.ReportMetric(sd, "s-shared-disk")
	b.ReportMetric(sn, "s-shared-nothing")
}

// BenchmarkExtSkewedGeneration measures Zipf-skewed fact generation.
func BenchmarkExtSkewedGeneration(b *testing.B) {
	star := APB1Scaled(60)
	star.Density = 0.1
	skew := UniformSkew(star)
	skew.Theta[0] = 1.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateSkewedData(star, int64(i), skew); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtWAHCompression measures WAH compression and compressed AND
// on a sparse product-code bitmap against the plain bitset AND.
func BenchmarkExtWAHCompression(b *testing.B) {
	const n = 1 << 20
	sparse := bitmap.New(n)
	for i := 0; i < n; i += 14_400 {
		sparse.Set(i)
	}
	dense := bitmap.New(n)
	for i := 0; i < n; i += 24 {
		dense.Set(i)
	}
	cs := bitmap.CompressInto(&bitmap.Compressed{}, sparse)
	cd := bitmap.CompressInto(&bitmap.Compressed{}, dense)
	var and bitmap.Compressed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bitmap.AndAllInto(&and, cs, cd)
	}
	b.ReportMetric(float64(cs.Bytes())/float64(8*len(sparse.Words())), "sparse-ratio")
}

// BenchmarkExtStorageExecutor measures real page-I/O star query execution
// against an on-disk warehouse at reduced scale.
func BenchmarkExtStorageExecutor(b *testing.B) {
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
	dir := b.TempDir()
	store, err := storage.Build(dir, tab, spec)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	bf, err := storage.BuildBitmaps(dir, store, icfg)
	if err != nil {
		b.Fatal(err)
	}
	defer bf.Close()
	ex := workerExecutor(b, store, bf, 0)
	q, err := NewQueryGenerator(star, 7).Next(OneCodeOneQuarter)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := executorTotal(ex, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtBTreeLookup measures dimension-table name resolution.
func BenchmarkExtBTreeLookup(b *testing.B) {
	catalog := BuildDimCatalog(APB1())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := catalog.ParseQuery("time.month = 'MONTH-0003', product.group = 'GROUP-0042'")
		if err != nil {
			b.Fatal(err)
		}
		if len(q.Preds) != 2 {
			b.Fatal("bad query")
		}
	}
}
