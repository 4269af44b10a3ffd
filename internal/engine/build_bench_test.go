package engine

import (
	"testing"

	"repro/internal/data"
	"repro/internal/frag"
	"repro/internal/schema"
)

// BenchmarkEngineBuild times the in-memory engine's build over the
// serving benchmark's table (APB1Scaled(60), seed 1, month × group,
// APB-1 indexes): the partition into fragments and every fragment's
// bitmap indices, reported per fact row.
func BenchmarkEngineBuild(b *testing.B) {
	star := schema.APB1Scaled(60)
	tab := data.MustGenerate(star, 1)
	spec := frag.MustParse(star, "time::month, product::group")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(tab, spec, frag.APB1Indexes(star)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tab.N()), "ns/row")
}
