package storage

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/schema"
)

// BenchmarkStoreBuild times the serving benchmark's on-disk build
// (APB1Scaled(60), seed 1, month × group, APB-1 indexes, WAH bitmaps on
// four round-robin disks): the fact file, the bitmap file and the
// executor over them, reported per fact row.
func BenchmarkStoreBuild(b *testing.B) {
	star := schema.APB1Scaled(60)
	tab := data.MustGenerate(star, 1)
	spec := frag.MustParse(star, "time::month, product::group")
	sched := exec.NewScheduler(1)
	defer sched.Close()
	cfg := BackendConfig{Compress: true, Placement: alloc.Placement{Disks: 4, Scheme: alloc.RoundRobin}, Sched: sched}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be, err := BuildBackend(b.TempDir(), tab, spec, frag.APB1Indexes(star), cfg)
		if err != nil {
			b.Fatal(err)
		}
		be.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tab.N()), "ns/row")
}
