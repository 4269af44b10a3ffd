package mdhf

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
)

// TestConcurrentExecutorHammer hammers one shared storage.Executor from N
// goroutines with the paper's query classes, single-disk and declustered,
// asserting every result is byte-identical to serial execution — the
// safety baseline the Warehouse's admission scheduler builds on. Run
// under -race in CI.
func TestConcurrentExecutorHammer(t *testing.T) {
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	spec, err := ParseFragmentation(star, "time::month, product::group")
	if err != nil {
		t.Fatal(err)
	}
	icfg := APB1Indexes(star)
	dir := t.TempDir()
	store, err := storage.Build(dir, tab, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	bf, err := storage.BuildBitmaps(dir, store, icfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	queries := warehouseQueries(t, star)

	for _, disks := range []int{0, 4} {
		name := "single-disk"
		if disks > 0 {
			name = fmt.Sprintf("declustered-%d", disks)
			if _, err := storage.Decluster(store, bf, Placement{Disks: disks, Scheme: RoundRobin, Staggered: true}); err != nil {
				t.Fatal(err)
			}
		}
		t.Run(name, func(t *testing.T) {
			type result struct {
				agg Aggregate
				io  StorageIOStats
			}
			serial := workerExecutor(t, store, bf, 1)
			want := map[string]result{}
			for qname, q := range queries {
				sagg, io, err := executorTotal(serial, q)
				if err != nil {
					t.Fatalf("serial %s: %v", qname, err)
				}
				want[qname] = result{
					agg: Aggregate{Count: sagg.Count, UnitsSold: sagg.UnitsSold, DollarSales: sagg.DollarSales, Cost: sagg.Cost},
					io:  io,
				}
			}

			// One shared executor on one pool of four, N goroutines.
			shared := workerExecutor(t, store, bf, 4)
			const goroutines = 8
			var wg sync.WaitGroup
			errc := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for rep := 0; rep < 3; rep++ {
						for qname, q := range queries {
							sagg, io, err := executorTotal(shared, q)
							if err != nil {
								errc <- fmt.Errorf("g%d %s: %v", g, qname, err)
								return
							}
							agg := Aggregate{Count: sagg.Count, UnitsSold: sagg.UnitsSold, DollarSales: sagg.DollarSales, Cost: sagg.Cost}
							if agg != want[qname].agg || io != want[qname].io {
								errc <- fmt.Errorf("g%d %s: diverged from serial: got %+v/%+v want %+v/%+v",
									g, qname, agg, io, want[qname].agg, want[qname].io)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
		})
	}
}

// TestConcurrentEngineHammer is the in-memory counterpart: one Engine
// executed from N goroutines concurrently, each result byte-identical to
// serial execution.
func TestConcurrentEngineHammer(t *testing.T) {
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	spec, err := ParseFragmentation(star, "time::month, product::group")
	if err != nil {
		t.Fatal(err)
	}
	icfg := APB1Indexes(star)
	queries := warehouseQueries(t, star)

	t.Run("materialized", func(t *testing.T) {
		eng, err := engine.Build(tab, spec, icfg)
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			agg Aggregate
			st  EngineStats
		}
		want := map[string]result{}
		serial, shared := newSched(t, 1), newSched(t, 4)
		for qname, q := range queries {
			agg, st, err := engineTotal(eng, serial, q)
			if err != nil {
				t.Fatalf("serial %s: %v", qname, err)
			}
			want[qname] = result{agg: agg, st: st}
		}
		const goroutines = 8
		var wg sync.WaitGroup
		errc := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					for qname, q := range queries {
						agg, st, err := engineTotal(eng, shared, q)
						if err != nil {
							errc <- fmt.Errorf("g%d %s: %v", g, qname, err)
							return
						}
						if agg != want[qname].agg || st != want[qname].st {
							errc <- fmt.Errorf("g%d %s: diverged from serial: got %+v/%+v want %+v/%+v",
								g, qname, agg, st, want[qname].agg, want[qname].st)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
	})
}
