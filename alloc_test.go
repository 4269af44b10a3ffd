package mdhf

import (
	"context"
	"runtime"
	"testing"
)

// TestExecuteAllocationFloor pins what one warm in-memory Execute
// allocates: its answer and little else. A query of one fragment runs on
// its caller, with no job, channel, partials array or fragment list; a
// query of 16 fragments pays the pool's dispatch once, not per fragment.
// The bounds are the measured values (416 B and 4 mallocs, 676 B and 10
// mallocs on amd64, go1.24) plus about 25 %. When every call went through
// the pool and listed its fragments, the same queries took 1,212 B and 24
// mallocs, and 1,316 B and 21.
func TestExecuteAllocationFloor(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::class", Table: MustGenerateData(star, 3)}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, tc := range []struct {
		text           string
		frags          int64
		bytes, mallocs uint64
	}{
		{"time::month=1, product::class=2", 1, 520, 5},
		{"customer::store=3", 16, 850, 13},
	} {
		p, err := w.QueryText(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		if n := w.spec.RelevantCount(p.Query()); n != tc.frags {
			t.Fatalf("%s: %d fragments, want %d", tc.text, n, tc.frags)
		}
		run := func() {
			if _, _, err := p.Execute(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			run()
		}
		mallocs := testing.AllocsPerRun(100, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / 100
		t.Logf("%s (%d fragments): %d bytes, %.0f mallocs per warm Execute", tc.text, tc.frags, bytes, mallocs)
		if bytes > tc.bytes || mallocs > float64(tc.mallocs) {
			t.Errorf("%s: %d bytes and %.0f mallocs per warm Execute, want at most %d and %d", tc.text, bytes, mallocs, tc.bytes, tc.mallocs)
		}
	}
}
