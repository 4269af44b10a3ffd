package mdhf

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

// cacheOpts is the caching configuration the equivalence tests layer onto
// every backend: a pool big enough to hold the tiny dataset plus a result
// cache with room for the whole query list.
func cacheOpts(extra ...Option) []Option {
	return append([]Option{WithBufferPool(4 << 20), WithResultCache(64)}, extra...)
}

// TestCachedEquivalence is the caching oracle: a warehouse serving through
// the buffer pool and the result cache must answer every query
// byte-identically to an uncached warehouse over the same rows — cold and
// warm, across appends (fragment-granular invalidation) and across
// compactions (epoch roll re-keying) — on every backend. Warm repeats must
// actually come from the cache.
func TestCachedEquivalence(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	full := MustGenerateData(star, 8)
	n := full.N()
	base := prefixTable(full, n*2/3)
	extra := splitRows(full, n*2/3, n)
	again := splitRows(full, 0, n/4)
	cfg := func(tab *FactTable) Config {
		return Config{Star: star, Fragmentation: "time::month, product::group", Table: tab}
	}
	for _, bk := range ingestBackends {
		t.Run(bk.name, func(t *testing.T) {
			w, err := Open(ctx, cfg(base), append(cacheOpts(), bk.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			oracle, err := Open(ctx, cfg(full), bk.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()

			for _, rows := range [][]FactRow{extra[:len(extra)/2], extra[len(extra)/2:]} {
				if err := w.Append(ctx, rows); err != nil {
					t.Fatal(err)
				}
			}
			check := func(phase string, wantEpoch int64) {
				t.Helper()
				for _, text := range ingestQueries {
					q, err := ParseQuery(star, text)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := oracle.Query(q).Execute(ctx)
					if err != nil {
						t.Fatal(err)
					}
					cold, cst, err := w.Query(q).Execute(ctx)
					if err != nil {
						t.Fatalf("%s: %q: %v", phase, text, err)
					}
					warm, wst, err := w.Query(q).Execute(ctx)
					if err != nil {
						t.Fatalf("%s: %q warm: %v", phase, text, err)
					}
					if !reflect.DeepEqual(cold, want) {
						t.Errorf("%s: %q: cold cached result diverged from oracle", phase, text)
					}
					if !reflect.DeepEqual(warm, want) {
						t.Errorf("%s: %q: warm cached result diverged from oracle", phase, text)
					}
					if !wst.CacheHit {
						t.Errorf("%s: %q: repeat execution not served from the result cache", phase, text)
					}
					if wst.IO.FactIOs != 0 || wst.IO.BitmapIOs != 0 {
						t.Errorf("%s: %q: cache hit still did I/O: %+v", phase, text, wst.IO)
					}
					if cst.Epoch != wantEpoch || wst.Epoch != wantEpoch {
						t.Errorf("%s: %q: epochs %d/%d, want %d", phase, text, cst.Epoch, wst.Epoch, wantEpoch)
					}
				}
			}

			check("pre-compaction", 0)
			st := w.ServingStats()
			if st.Cache.Hits < int64(len(ingestQueries)) {
				t.Fatalf("pre-compaction cache hits %d, want >= %d", st.Cache.Hits, len(ingestQueries))
			}
			if st.Cache.Capacity != 64 || st.Cache.Entries == 0 {
				t.Fatalf("cache occupancy: %+v", st.Cache)
			}

			if err := w.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			// The compaction re-keys instead of flushing: the very first
			// post-compaction execution of an already-cached query must hit.
			q0, err := ParseQuery(star, ingestQueries[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, pst, err := w.Query(q0).Execute(ctx); err != nil {
				t.Fatal(err)
			} else if !pst.CacheHit {
				t.Error("first post-compaction execution missed: compaction flushed instead of re-keying")
			} else if pst.Epoch != 1 {
				t.Errorf("post-compaction hit pinned epoch %d, want 1", pst.Epoch)
			}
			if st := w.ServingStats(); st.Cache.Rekeys == 0 {
				t.Fatal("compaction recorded no re-keys")
			}
			check("post-compaction", 1)

			if err := w.Append(ctx, again); err != nil {
				t.Fatal(err)
			}
			oracle2, err := Open(ctx, cfg(withRows(full, again)), bk.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer oracle2.Close()
			oracle = oracle2
			check("post-compaction append", 1)

			st = w.ServingStats()
			if st.Cache.Invalidations == 0 {
				t.Fatal("appends evicted nothing from the result cache")
			}
			if bk.name != "in-memory" && bk.name != "in-memory/compressed" {
				if st.Cache.Pool.Hits == 0 {
					t.Fatalf("on-disk backend never hit the buffer pool: %+v", st.Cache.Pool)
				}
				if st.Cache.Pool.UsedBytes > st.Cache.Pool.BudgetBytes {
					t.Fatalf("pool over budget: %+v", st.Cache.Pool)
				}
			}
		})
	}
}

// TestPoolOnlyEquivalence isolates level 1: with just the buffer pool (no
// result cache) every execution runs the real executor, so warm runs must
// report pool hits in their own Stats.IO while staying byte-identical —
// and an epoch roll must start cold, proving entries are epoch-keyed.
func TestPoolOnlyEquivalence(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	full := MustGenerateData(star, 8)
	n := full.N()
	base := prefixTable(full, n*3/4)
	extra := splitRows(full, n*3/4, n)
	cfg := func(tab *FactTable) Config {
		return Config{Star: star, Fragmentation: "time::month, product::group", Table: tab}
	}
	backends := []struct {
		name string
		opts []Option
	}{
		{"on-disk", []Option{WithOnDisk("")}},
		{"declustered/compressed", []Option{WithDisks(3, RoundRobin), WithCompression()}},
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			w, err := Open(ctx, cfg(base), append([]Option{WithBufferPool(4 << 20)}, bk.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			oracle, err := Open(ctx, cfg(full), bk.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()
			if err := w.Append(ctx, extra); err != nil {
				t.Fatal(err)
			}

			run := func(text string) (Result, Stats) {
				t.Helper()
				q, err := ParseQuery(star, text)
				if err != nil {
					t.Fatal(err)
				}
				res, st, err := w.Query(q).Execute(ctx)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := oracle.Query(q).Execute(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("%q: pooled result diverged from oracle", text)
				}
				return res, st
			}

			for _, text := range ingestQueries {
				_, cold := run(text)
				if cold.CacheHit {
					t.Fatalf("%q: result-cache hit without a result cache", text)
				}
				_, warm := run(text)
				if warm.IO.PoolHits == 0 {
					t.Errorf("%q: warm run reported no pool hits: %+v", text, warm.IO)
				}
				// Logical I/O is pool-independent: the executor reads the same
				// granules either way.
				if warm.IO.FactIOs != cold.IO.FactIOs || warm.IO.FactPages != cold.IO.FactPages {
					t.Errorf("%q: logical fact I/O changed with pool warmth: cold %+v warm %+v", text, cold.IO, warm.IO)
				}
			}

			// Roll the epoch: the rebuilt backend's reads key differently, so
			// the first post-compaction run must miss the pool entirely.
			if err := w.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			_, rolled := run(ingestQueries[0])
			if rolled.Epoch != 1 {
				t.Fatalf("post-compaction epoch %d", rolled.Epoch)
			}
			if rolled.IO.PoolHits != 0 {
				t.Fatalf("epoch-1 execution hit epoch-0 pool entries: %+v", rolled.IO)
			}
			if rolled.IO.PoolMisses == 0 {
				t.Fatalf("epoch-1 execution consulted no pool: %+v", rolled.IO)
			}
			_, rewarmed := run(ingestQueries[0])
			if rewarmed.IO.PoolHits == 0 {
				t.Fatalf("epoch-1 rerun did not re-warm the pool: %+v", rewarmed.IO)
			}
		})
	}
}

// TestCacheInvalidationGranularity pins the append rule end to end: after
// caching one query per month, an append confined to a single fragment
// must evict exactly the entries whose confinement region contains that
// fragment — the other months keep hitting without recomputation.
func TestCacheInvalidationGranularity(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	full := MustGenerateData(star, 8)
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Table: full},
		WithOnDisk(""), WithBufferPool(4<<20), WithResultCache(64))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	months := star.Dims[2].Levels[len(star.Dims[2].Levels)-1].Card // time is dim 2, leaf level = month
	queries := make([]*PreparedQuery, months)
	for m := 0; m < months; m++ {
		q, err := ParseQuery(star, fmt.Sprintf("time::month=%d", m))
		if err != nil {
			t.Fatal(err)
		}
		queries[m] = w.Query(q)
		if _, _, err := queries[m].Execute(ctx); err != nil { // cold: fills the cache
			t.Fatal(err)
		}
	}

	// One appended row, touching exactly one fragment — month 1's.
	const touchedMonth = 1
	row := FactRow{Leaves: make([]int32, len(star.Dims)), UnitsSold: 5, DollarSales: 7, Cost: 3}
	row.Leaves[2] = touchedMonth
	buf := make([]int, len(star.Dims))
	for d, leaf := range row.Leaves {
		buf[d] = int(leaf)
	}
	touchedID := w.spec.ID(w.spec.CoordOf(buf))
	before := w.ServingStats()
	if err := w.Append(ctx, []FactRow{row}); err != nil {
		t.Fatal(err)
	}
	after := w.ServingStats()
	if d := after.Cache.Invalidations - before.Cache.Invalidations; d != 1 {
		t.Fatalf("append invalidated %d entries, want exactly the touched month's 1", d)
	}
	if after.Cache.Rekeys <= before.Cache.Rekeys {
		t.Fatal("append re-keyed nothing: untouched entries were flushed")
	}

	// An uncached oracle over the appended table checks the recomputation.
	oracle, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group",
		Table: withRows(full, []FactRow{row})})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	coord := w.spec.Coord(touchedID)
	for m := 0; m < months; m++ {
		res, st, err := queries[m].Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := oracle.Query(queries[m].Query()).Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("month %d diverged from oracle after the append", m)
		}
		inRegion := regionTouches(w.spec.Relevant(queries[m].Query()), [][]int{coord})
		if m == touchedMonth {
			if !inRegion {
				t.Fatal("touched fragment not in its own month's region")
			}
			if st.CacheHit {
				t.Fatal("touched month served stale from the cache")
			}
			if st.DeltaRows != 1 {
				t.Fatalf("touched month folded %d delta rows, want 1", st.DeltaRows)
			}
		} else {
			if inRegion {
				t.Fatalf("month %d region unexpectedly contains the touched fragment", m)
			}
			if !st.CacheHit {
				t.Fatalf("untouched month %d was recomputed after a disjoint append", m)
			}
		}
	}
}

// TestCacheSingleflight collapses identical concurrent executions: with a
// slow backend, one leader computes while the rest join its result; every
// result is byte-identical and ServingStats counts the collapses.
func TestCacheSingleflight(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Table: MustGenerateData(star, 8)},
		WithOnDisk(""), WithIODelay(2*time.Millisecond), WithResultCache(16))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	warm, err := ParseQuery(star, "time::month=3")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Query(warm).Execute(ctx); err != nil { // build the backend outside the race
		t.Fatal(err)
	}

	q, err := ParseQuery(star, "time::quarter=1 group by product::group")
	if err != nil {
		t.Fatal(err)
	}
	const racers = 8
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []Result
		stats   []Stats
	)
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, st, err := w.Query(q).Execute(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			results = append(results, res)
			stats = append(stats, st)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if len(results) != racers {
		t.Fatal("some executions failed")
	}
	var shared, hits, computed int
	for i, st := range stats {
		switch {
		case st.Shared:
			shared++
		case st.CacheHit:
			hits++
		default:
			computed++
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatal("concurrent identical executions diverged")
		}
	}
	if computed < 1 {
		t.Fatalf("no leader computed: shared %d hits %d", shared, hits)
	}
	if shared == 0 {
		t.Fatalf("no execution collapsed onto the leader (computed %d, hits %d)", computed, hits)
	}
	st := w.ServingStats()
	if st.Cache.Shared != int64(shared) {
		t.Fatalf("ServingStats.Cache.Shared = %d, observed %d singleflight followers", st.Cache.Shared, shared)
	}
}

// TestCacheHammer is TestIngestHammer with both cache levels on: Append,
// Execute (several distinct queries), Compact and Close interleave under
// the race detector; every operation either succeeds or reports ErrClosed
// and the owned files are removed.
func TestCacheHammer(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	full := MustGenerateData(star, 8)
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Table: prefixTable(full, full.N()/2)},
		WithDisks(3, GapRoundRobin), WithCompression(), WithAutoCompaction(64),
		WithBufferPool(256<<10), WithResultCache(8))
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"time::month=1 group by product::group",
		"time::quarter=1",
		"customer::store=2",
		"group by time::quarter, customer::store",
	}
	queries := make([]Query, len(texts))
	for i, text := range texts {
		if queries[i], err = ParseQuery(star, text); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := w.Query(queries[0]).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	rootDir := w.store.RootDir()

	ok := func(err error) bool { return err == nil || errors.Is(err, ErrClosed) }
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 25; i++ {
				rows := make([]FactRow, 1+rng.Intn(8))
				for r := range rows {
					leaves := make([]int32, len(star.Dims))
					for d := range leaves {
						leaves[d] = int32(rng.Intn(star.Dims[d].LeafCard()))
					}
					rows[r] = FactRow{Leaves: leaves, UnitsSold: 1, DollarSales: 2, Cost: 3}
				}
				if err := w.Append(ctx, rows); !ok(err) {
					errs <- fmt.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := w.Query(queries[(g+i)%len(queries)]).Execute(ctx); !ok(err) {
					errs <- fmt.Errorf("execute: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := w.Compact(ctx); !ok(err) {
				errs <- fmt.Errorf("compact: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Close(); err != nil {
			errs <- fmt.Errorf("close: %v", err)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("second close:", err)
	}
	if _, _, err := w.Query(queries[0]).Execute(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("execute after close: %v", err)
	}
	if _, err := os.Stat(rootDir); !os.IsNotExist(err) {
		t.Fatalf("owned root %s not removed: %v", rootDir, err)
	}
}
