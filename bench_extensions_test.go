package mdhf

// Benchmarks for the implemented future-work extensions: skewed
// generation, WAH compression, the on-disk storage executor and the
// dimension-table lookup. The simulated ones (multi-user mode, clustering
// granules, Shared Nothing) are simpad's tests.

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/storage"
)

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
