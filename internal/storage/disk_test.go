package storage

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/schema"
)

// buildCompressedStore is buildStore with a WAH-compressed bitmap file.
func buildCompressedStore(t testing.TB, fragText string) (*schema.Star, *data.Table, *Store, *BitmapFile) {
	t.Helper()
	s := schema.Tiny()
	tab := data.MustGenerate(s, 21)
	spec := frag.MustParse(s, fragText)
	dir := t.TempDir()
	store, err := Build(dir, tab, spec)
	if err != nil {
		t.Fatal(err)
	}
	icfg := make(frag.IndexConfig, len(s.Dims))
	for i := range s.Dims {
		if s.Dims[i].Name == schema.DimProduct || s.Dims[i].Name == schema.DimCustomer {
			icfg[i] = frag.IndexSpec{Kind: frag.EncodedIndex}
		} else {
			icfg[i] = frag.IndexSpec{Kind: frag.SimpleIndexes}
		}
	}
	bf, err := BuildCompressedBitmaps(dir, store, icfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		store.Close()
		bf.Close()
	})
	return s, tab, store, bf
}

// TestDeclusteredMatchesSingleDisk is the declustering determinism
// guarantee: for every query class Q1-Q4 plus an unsupported query, at
// every disk count and worker count, on both the materialised and the
// compressed bitmap path, the declustered execution returns byte-identical
// aggregates and IOStats to the plain single-disk executor.
func TestDeclusteredMatchesSingleDisk(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		name := "materialized"
		build := buildStore
		if compressed {
			name, build = "compressed", buildCompressedStore
		}
		t.Run(name, func(t *testing.T) {
			s, _, store, bf := build(t, "time::month, product::group")
			queries := classQueries(t, s, store.spec)

			// Baseline: sequential, single implicit disk.
			want := map[string]partial{}
			for qname, q := range queries {
				seq := newTestExecutor(t, store, bf, 1)
				agg, st, err := execute(seq, q)
				if err != nil {
					t.Fatalf("%s: %v", qname, err)
				}
				want[qname] = partial{fp: kernel.FragPartial{Agg: agg}, st: st}
			}

			for _, disks := range []int{1, 2, 4, 8} {
				for _, scheme := range []alloc.Scheme{alloc.RoundRobin, alloc.GapRoundRobin} {
					p := alloc.Placement{Disks: disks, Scheme: scheme, Staggered: true}
					ds := NewDiskSet(disks)
					if err := store.Decluster(p, ds); err != nil {
						t.Fatal(err)
					}
					if err := bf.Decluster(p, ds); err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2, 4, 8} {
						ex := newTestExecutor(t, store, bf, workers)
						for qname, q := range queries {
							agg, st, err := execute(ex, q)
							if err != nil {
								t.Fatalf("%s d=%d w=%d: %v", qname, disks, workers, err)
							}
							if agg != want[qname].fp.Agg {
								t.Errorf("%s %v d=%d w=%d: aggregate %+v != single-disk %+v", qname, scheme, disks, workers, agg, want[qname].fp.Agg)
							}
							if st != want[qname].st {
								t.Errorf("%s %v d=%d w=%d: IOStats %+v != single-disk %+v", qname, scheme, disks, workers, st, want[qname].st)
							}
						}
					}
				}
			}
			if err := store.Decluster(alloc.Placement{}, nil); err != nil {
				t.Fatal(err)
			}
			if err := bf.Decluster(alloc.Placement{}, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSyncPrefetchMatchesAsync asserts the async granule pipeline changes
// nothing observable: with AsyncPrefetch off, every query returns the
// same aggregates and IOStats.
func TestSyncPrefetchMatchesAsync(t *testing.T) {
	s, _, store, bf := buildStore(t, "time::month, product::group")
	for qname, q := range classQueries(t, s, store.spec) {
		async := newTestExecutor(t, store, bf, 0)
		sync := newTestExecutor(t, store, bf, 0)
		sync.AsyncPrefetch = false
		aAgg, aSt, err := execute(async, q)
		if err != nil {
			t.Fatalf("%s: %v", qname, err)
		}
		sAgg, sSt, err := execute(sync, q)
		if err != nil {
			t.Fatalf("%s: %v", qname, err)
		}
		if aAgg != sAgg || aSt != sSt {
			t.Errorf("%s: async %+v/%+v != sync %+v/%+v", qname, aAgg, aSt, sAgg, sSt)
		}
	}
}

// TestDiskSetStatsAccountAllIO asserts every physical access lands on
// exactly one disk: the per-disk counters sum to the executor's IOStats,
// and fact accesses land on the placement's fact disks.
func TestDiskSetStatsAccountAllIO(t *testing.T) {
	s, _, store, bf := buildStore(t, "time::month, product::group")
	p := alloc.Placement{Disks: 4, Scheme: alloc.RoundRobin, Staggered: true}
	ds := NewDiskSet(4)
	if err := store.Decluster(p, ds); err != nil {
		t.Fatal(err)
	}
	if err := bf.Decluster(p, ds); err != nil {
		t.Fatal(err)
	}
	cd := s.DimIndex(schema.DimCustomer)
	q := frag.Query{Preds: []frag.Pred{{Dim: cd, Level: s.Dims[cd].LevelIndex(schema.LvlStore), Member: 2}}}
	ex := newTestExecutor(t, store, bf, 0)
	_, st, err := execute(ex, q)
	if err != nil {
		t.Fatal(err)
	}
	var ios, pages int64
	for _, d := range ds.Stats() {
		ios += d.IOs
		pages += d.Pages
	}
	if wantIOs := st.FactIOs + st.BitmapIOs; ios != wantIOs {
		t.Errorf("disk IOs = %d, IOStats total = %d", ios, wantIOs)
	}
	if wantPages := st.FactPages + st.BitmapPages; pages != wantPages {
		t.Errorf("disk pages = %d, IOStats total = %d", pages, wantPages)
	}
	// An unsupported query touches every fragment, hence (with 4 disks
	// and staggered bitmaps) every disk.
	for i, d := range ds.Stats() {
		if d.IOs == 0 {
			t.Errorf("disk %d idle during full-fanout query", i)
		}
	}
	ds.ResetStats()
	for i, d := range ds.Stats() {
		if d.IOs != 0 || d.Pages != 0 {
			t.Errorf("disk %d stats not reset: %+v", i, d)
		}
	}
}

// TestDeclusterValidation covers the placement/disk-set wiring errors and
// reset semantics.
func TestDeclusterValidation(t *testing.T) {
	_, _, store, bf := buildStore(t, "time::month, product::group")
	ds := NewDiskSet(4)
	bad := alloc.Placement{Disks: 8, Scheme: alloc.RoundRobin}
	if err := store.Decluster(bad, ds); err == nil {
		t.Error("store accepted placement over 8 disks on a 4-disk set")
	}
	if err := bf.Decluster(bad, ds); err == nil {
		t.Error("bitmap file accepted placement over 8 disks on a 4-disk set")
	}
	good := alloc.Placement{Disks: 4, Scheme: alloc.RoundRobin}
	if err := store.Decluster(good, ds); err != nil {
		t.Fatal(err)
	}
	if store.Declustered() != ds || store.Placement() != good {
		t.Error("store declustering not recorded")
	}
	if got := store.DiskOf(7); got != 3 {
		t.Errorf("DiskOf(7) = %d, want 3", got)
	}
	if err := store.Decluster(alloc.Placement{}, nil); err != nil {
		t.Fatal(err)
	}
	if store.Declustered() != nil || store.DiskOf(7) != 0 {
		t.Error("store declustering not reset")
	}
	if NewDiskSet(0).Disks() != 1 {
		t.Error("NewDiskSet(0) should clamp to one disk")
	}
}

// TestPerDiskDelayObservable is the point of the whole disk model: with a
// per-access delay, a query over d serialized disks finishes roughly d
// times faster than over one — the paper's speed-up-over-disks
// experiment in miniature. Bounds are kept loose (>1.5x at 4 disks) to
// stay robust on loaded CI machines.
func TestPerDiskDelayObservable(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	s, _, store, bf := buildStore(t, "time::month, product::group")
	cd := s.DimIndex(schema.DimCustomer)
	q := frag.Query{Preds: []frag.Pred{{Dim: cd, Level: s.Dims[cd].LevelIndex(schema.LvlStore), Member: 2}}}

	elapsed := func(disks int) time.Duration {
		p := alloc.Placement{Disks: disks, Scheme: alloc.RoundRobin, Staggered: true}
		ds := NewDiskSet(disks)
		if err := store.Decluster(p, ds); err != nil {
			t.Fatal(err)
		}
		if err := bf.Decluster(p, ds); err != nil {
			t.Fatal(err)
		}
		ds.SetIODelay(200 * time.Microsecond)
		ex := newTestExecutor(t, store, bf, 8)
		start := time.Now()
		if _, _, err := execute(ex, q); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	t1 := elapsed(1)
	t4 := elapsed(4)
	if err := store.Decluster(alloc.Placement{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := bf.Decluster(alloc.Placement{}, nil); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(t1) / float64(t4); ratio < 1.5 {
		t.Errorf("4 disks only %.2fx faster than 1 (t1=%v t4=%v)", ratio, t1, t4)
	}
}

// TestSetIODelayConcurrent exercises the satellite fix: SetIODelay while
// queries run must be race-free (run under -race).
func TestSetIODelayConcurrent(t *testing.T) {
	s, _, store, bf := buildStore(t, "time::month, product::group")
	cd := s.DimIndex(schema.DimCustomer)
	q := frag.Query{Preds: []frag.Pred{{Dim: cd, Level: s.Dims[cd].LevelIndex(schema.LvlStore), Member: 1}}}
	ex := newTestExecutor(t, store, bf, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			store.SetIODelay(time.Duration(i%2) * time.Microsecond)
			bf.SetIODelay(time.Duration(i%2) * time.Microsecond)
		}
	}()
	for i := 0; i < 10; i++ {
		if _, _, err := execute(ex, q); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	store.SetIODelay(0)
	bf.SetIODelay(0)
}

// TestDeclusteredConcurrentQueries runs concurrent queries against one
// declustered executor — the -race target for the disk queue and
// prefetch pipeline.
func TestDeclusteredConcurrentQueries(t *testing.T) {
	s, tab, store, bf := buildStore(t, "time::month, product::group")
	p := alloc.Placement{Disks: 4, Scheme: alloc.GapRoundRobin, Staggered: true}
	ds := NewDiskSet(4)
	if err := store.Decluster(p, ds); err != nil {
		t.Fatal(err)
	}
	if err := bf.Decluster(p, ds); err != nil {
		t.Fatal(err)
	}
	defer func() {
		store.Decluster(alloc.Placement{}, nil)
		bf.Decluster(alloc.Placement{}, nil)
	}()
	ex := newTestExecutor(t, store, bf, 4)
	qs := classQueries(t, s, store.spec)
	errc := make(chan error, len(qs)*3)
	for qname, q := range qs {
		for c := 0; c < 3; c++ {
			go func(qname string, q frag.Query) {
				for rep := 0; rep < 3; rep++ {
					got, _, err := execute(ex, q)
					if err != nil {
						errc <- fmt.Errorf("%s: %v", qname, err)
						return
					}
					want := engine.Scan(tab, q)
					if got.Count != want.Count || got.DollarSales != want.DollarSales {
						errc <- fmt.Errorf("%s: got %+v, want %+v", qname, got, want)
						return
					}
				}
				errc <- nil
			}(qname, q)
		}
	}
	for i := 0; i < len(qs)*3; i++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}

// TestDeclusterAtomic covers the pair-level Decluster: a failure must
// leave both the store and the bitmap file exactly as they were, never
// half-declustered.
func TestDeclusterAtomic(t *testing.T) {
	s, _, store, bf := buildStore(t, "time::month, product::group")

	// Establish a prior declustered state to observe rollback against.
	prev := alloc.Placement{Disks: 2, Scheme: alloc.RoundRobin, Staggered: true}
	prevDS, err := Decluster(store, bf, prev)
	if err != nil {
		t.Fatal(err)
	}
	checkUnchanged := func(when string) {
		t.Helper()
		if store.Declustered() != prevDS || bf.Declustered() != prevDS {
			t.Fatalf("%s: pair not left on prior disk set (store %p, bf %p, want %p)",
				when, store.Declustered(), bf.Declustered(), prevDS)
		}
		if store.Placement() != prev {
			t.Fatalf("%s: store placement mutated to %+v", when, store.Placement())
		}
	}

	// Invalid placements fail before any mutation.
	for _, bad := range []alloc.Placement{
		{Disks: 0},
		{Disks: -3},
		{Disks: 4, Cluster: -1},
	} {
		if _, err := Decluster(store, bf, bad); err == nil {
			t.Fatalf("Decluster(%+v) succeeded, want error", bad)
		}
		checkUnchanged(fmt.Sprintf("after %+v", bad))
	}

	// A bitmap file from a different store/fragmentation is rejected
	// before the store is touched — the partial-failure case that used to
	// leave the store declustered while the bitmap file kept its old
	// routing.
	_, _, _, foreignBF := buildStore(t, "time::quarter")
	good := alloc.Placement{Disks: 4, Scheme: alloc.GapRoundRobin, Staggered: true}
	if _, err := Decluster(store, foreignBF, good); err == nil {
		t.Fatal("Decluster with a foreign bitmap file succeeded, want error")
	}
	checkUnchanged("after foreign bitmap file")
	if foreignBF.Declustered() != nil {
		t.Fatal("foreign bitmap file was declustered")
	}

	// The happy path still switches both components to one shared set and
	// executes correctly.
	ds, err := Decluster(store, bf, good)
	if err != nil {
		t.Fatal(err)
	}
	if store.Declustered() != ds || bf.Declustered() != ds {
		t.Fatal("pair not sharing the new disk set")
	}
	ex := newTestExecutor(t, store, bf, 0)
	for qname, q := range classQueries(t, s, store.spec) {
		if _, _, err := execute(ex, q); err != nil {
			t.Fatalf("%s after Decluster: %v", qname, err)
		}
	}

	// A nil bitmap file declusters only the store.
	if _, err := Decluster(store, nil, prev); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorSchedulerMatchesPrivatePool checks that dispatching through
// a shared admission scheduler returns byte-identical aggregates and
// IOStats to the executor's private per-query pool, single-disk and
// declustered, including with several executions in flight at once.
func TestExecutorSchedulerMatchesPrivatePool(t *testing.T) {
	s, _, store, bf := buildStore(t, "time::month, product::group")
	queries := classQueries(t, s, store.spec)

	sched := exec.NewScheduler(4)
	defer sched.Close()

	for _, disks := range []int{1, 4} {
		p := alloc.Placement{Disks: disks, Scheme: alloc.RoundRobin, Staggered: true}
		if _, err := Decluster(store, bf, p); err != nil {
			t.Fatal(err)
		}

		want := map[string]partial{}
		serial := newTestExecutor(t, store, bf, 1)
		for qname, q := range queries {
			agg, st, err := execute(serial, q)
			if err != nil {
				t.Fatalf("serial %s: %v", qname, err)
			}
			want[qname] = partial{fp: kernel.FragPartial{Agg: agg}, st: st}
		}

		shared, err := NewExecutor(store, bf, sched)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, len(queries)*4)
		for qname, q := range queries {
			for c := 0; c < 4; c++ {
				go func(qname string, q frag.Query) {
					agg, st, err := execute(shared, q)
					if err != nil {
						errc <- fmt.Errorf("%s: %v", qname, err)
						return
					}
					if agg != want[qname].fp.Agg || st != want[qname].st {
						errc <- fmt.Errorf("%s on %d disks: scheduler result diverged: got %+v/%+v want %+v/%+v",
							qname, disks, agg, st, want[qname].fp.Agg, want[qname].st)
						return
					}
					errc <- nil
				}(qname, q)
			}
		}
		for i := 0; i < len(queries)*4; i++ {
			if err := <-errc; err != nil {
				t.Error(err)
			}
		}
	}
	if st := sched.Stats(); st.QueriesAdmitted == 0 || st.InFlight != 0 {
		t.Fatalf("scheduler accounting: %+v", st)
	}
}
