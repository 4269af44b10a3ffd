package mdhf

// BenchmarkAppendWhileServing establishes the ingestion trajectory of the
// epoch-versioned warehouse: sustained append throughput while 4 query
// streams keep serving and background compaction bounds the live delta
// set, then the per-query cost of folding a fixed delta load against the
// same query after compaction folded it back into the base. Each phase
// reports its figures as metrics.

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

func BenchmarkAppendWhileServing(b *testing.B) {
	ctx := context.Background()
	star := APB1Scaled(60)
	tab, err := GenerateData(star, 3)
	if err != nil {
		b.Fatal(err)
	}
	const batchRows = 512
	const streams = 4
	const compactAt = 16384
	w, err := Open(ctx, Config{
		Star:          star,
		Fragmentation: "time::month, product::group",
		Table:         tab,
	}, WithWorkers(8), WithDisks(4, RoundRobin), WithAutoCompaction(compactAt))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	})

	q, err := NewQueryGenerator(star, 7).Next(OneMonthOneGroup)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := w.Query(q).Execute(ctx); err != nil {
		b.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	batch := func() []FactRow {
		rows := make([]FactRow, batchRows)
		for r := range rows {
			leaves := make([]int32, len(star.Dims))
			for d := range leaves {
				leaves[d] = int32(rng.Intn(star.Dims[d].LeafCard()))
			}
			rows[r] = FactRow{Leaves: leaves, UnitsSold: 1, DollarSales: 2, Cost: 1}
		}
		return rows
	}

	// Phase 1: sustained appends racing a fixed set of live query streams,
	// with background compaction keeping the live delta set bounded — the
	// steady-state ingest regime.
	b.Run("append", func(b *testing.B) {
		stop := make(chan struct{})
		errc := make(chan error, streams)
		var wg sync.WaitGroup
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, _, err := w.Query(q).Execute(ctx); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Append(ctx, batch()); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
		select {
		case err := <-errc:
			b.Fatal(err)
		default:
		}
		b.ReportMetric(float64(b.N*batchRows)/b.Elapsed().Seconds(), "rows/sec")
		b.ReportMetric(float64(w.ServingStats().Compactions), "compactions")
	})

	// Phase 2: per-query cost with a fixed, known delta load live — the
	// read-side price of ingestion. Drain whatever phase 1 left behind,
	// then append a load below the auto-compaction threshold.
	if err := w.Compact(ctx); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < compactAt/2/batchRows; i++ {
		if err := w.Append(ctx, batch()); err != nil {
			b.Fatal(err)
		}
	}
	live := w.ServingStats().DeltaRows
	b.Run("query/with-deltas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := w.Query(q).Execute(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(live), "live-delta-rows")
	})

	// Phase 3: the same query after compaction rebuilt the backend.
	if err := w.Compact(ctx); err != nil {
		b.Fatal(err)
	}
	b.Run("query/compacted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := w.Query(q).Execute(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
