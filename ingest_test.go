package mdhf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// ingestBackends are the backend configurations every ingestion test
// exercises: both engines, the on-disk one under both bitmap formats, and
// declustered disk sets under both placement schemes.
var ingestBackends = []struct {
	name string
	opts []Option
}{
	{"in-memory", nil},
	{"on-disk", []Option{WithOnDisk("")}},
	{"on-disk/compressed", []Option{WithOnDisk(""), WithCompression()}},
	{"declustered", []Option{WithDisks(4, RoundRobin)}},
	{"declustered/gap/compressed", []Option{WithDisks(3, GapRoundRobin), WithCompression()}},
}

// ingestQueries spans the paper's query classes, grouped and ungrouped,
// under the standard "time::month, product::group" fragmentation.
var ingestQueries = []string{
	"time::month=1",
	"product::code=3",
	"time::quarter=1",
	"time::month=2, product::code=5",
	"customer::store=2",
	"",
	"time::month=1 group by product::group",
	"customer::retailer=1 group by time::month, product::class",
	"group by time::quarter, customer::store",
}

// splitRows converts rows [lo,hi) of a table into FactRows.
func splitRows(t *FactTable, lo, hi int) []FactRow {
	rows := make([]FactRow, 0, hi-lo)
	for i := lo; i < hi; i++ {
		leaves := make([]int32, len(t.Dims))
		for d := range t.Dims {
			leaves[d] = t.Dims[d][i]
		}
		rows = append(rows, FactRow{
			Leaves:      leaves,
			UnitsSold:   t.UnitsSold[i],
			DollarSales: t.DollarSales[i],
			Cost:        t.Cost[i],
		})
	}
	return rows
}

// prefixTable returns the first n rows of a table as a new table.
func prefixTable(t *FactTable, n int) *FactTable {
	head := &FactTable{Star: t.Star, Dims: make([][]int32, len(t.Dims))}
	for d := range t.Dims {
		head.Dims[d] = t.Dims[d][:n:n]
	}
	head.UnitsSold = t.UnitsSold[:n:n]
	head.DollarSales = t.DollarSales[:n:n]
	head.Cost = t.Cost[:n:n]
	return head
}

// withRows returns a new table with the FactRows appended.
func withRows(t *FactTable, rows []FactRow) *FactTable {
	out := &FactTable{Star: t.Star, Dims: make([][]int32, len(t.Dims))}
	for d := range t.Dims {
		out.Dims[d] = append(t.Dims[d][:len(t.Dims[d]):len(t.Dims[d])], nil...)
		for _, r := range rows {
			out.Dims[d] = append(out.Dims[d], r.Leaves[d])
		}
	}
	app := func(col []int64, get func(FactRow) int64) []int64 {
		out := col[:len(col):len(col)]
		for _, r := range rows {
			out = append(out, get(r))
		}
		return out
	}
	out.UnitsSold = app(t.UnitsSold, func(r FactRow) int64 { return r.UnitsSold })
	out.DollarSales = app(t.DollarSales, func(r FactRow) int64 { return r.DollarSales })
	out.Cost = app(t.Cost, func(r FactRow) int64 { return r.Cost })
	return out
}

// TestAppendEquivalence is the base+delta oracle: a warehouse seeded with
// a prefix of the table and fed the remainder through Append must answer
// every query byte-identically to a warehouse built from scratch over
// the same rows — before compaction (base + delta merge), after Compact
// (rebuilt backend at epoch 1), and after further appends on top of the
// compacted epoch — on every backend.
func TestAppendEquivalence(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	full := MustGenerateData(star, 8)
	n := full.N()
	base := prefixTable(full, n*2/3)
	extra := splitRows(full, n*2/3, n)
	again := splitRows(full, 0, n/4) // duplicates are legal appends
	cfg := func(tab *FactTable) Config {
		return Config{Star: star, Fragmentation: "time::month, product::group", Table: tab}
	}
	for _, bk := range ingestBackends {
		t.Run(bk.name, func(t *testing.T) {
			w, err := Open(ctx, cfg(base), bk.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			oracle, err := Open(ctx, cfg(full), bk.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()

			// Three append batches, so segments coalesce and stack.
			per := (len(extra) + 2) / 3
			for lo := 0; lo < len(extra); lo += per {
				hi := lo + per
				if hi > len(extra) {
					hi = len(extra)
				}
				if err := w.Append(ctx, extra[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
			check := func(phase string, wantEpoch int64, wantDelta int64) {
				t.Helper()
				for _, text := range ingestQueries {
					q, err := ParseQuery(star, text)
					if err != nil {
						t.Fatal(err)
					}
					got, gst, err := w.Query(q).Execute(ctx)
					if err != nil {
						t.Fatalf("%s: %q: %v", phase, text, err)
					}
					want, _, err := oracle.Query(q).Execute(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %q: base+delta %+v != oracle %+v", phase, text, got, want)
					}
					if gst.Epoch != wantEpoch {
						t.Errorf("%s: %q: pinned epoch %d, want %d", phase, text, gst.Epoch, wantEpoch)
					}
					if q.Preds == nil && q.GroupBy == nil && gst.DeltaRows != wantDelta {
						t.Errorf("%s: full scan folded %d delta rows, want %d", phase, gst.DeltaRows, wantDelta)
					}
				}
			}
			check("pre-compaction", 0, int64(len(extra)))
			st := w.ServingStats()
			if st.Epoch != 0 || st.Appends != 3 || st.AppendedRows != int64(len(extra)) || st.DeltaRows != int64(len(extra)) ||
				st.DeltaSegments != 17 || st.Compactions != 0 || st.CompactedRows != 0 ||
				st.Workers != w.Workers() || st.QueriesAdmitted != int64(len(ingestQueries)) || st.QueriesDone != st.QueriesAdmitted || st.InFlight != 0 {
				t.Fatalf("serving stats after appends: %+v", st)
			}

			if err := w.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			if e := w.Epoch(); e != 1 {
				t.Fatalf("epoch after compaction = %d", e)
			}
			check("post-compaction", 1, 0)
			st = w.ServingStats()
			if st.Epoch != 1 || st.Compactions != 1 || st.CompactedRows != int64(len(extra)) || st.DeltaRows != 0 || st.DeltaSegments != 0 {
				t.Fatalf("serving stats after compaction: %+v", st)
			}

			// Appends keep working on the compacted epoch.
			if err := w.Append(ctx, again); err != nil {
				t.Fatal(err)
			}
			oracle2, err := Open(ctx, cfg(withRows(full, again)), bk.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer oracle2.Close()
			oracle = oracle2
			check("post-compaction append", 1, int64(len(again)))
		})
	}
}

// TestAppendValidation rejects malformed rows without changing state,
// on every backend. A measure beyond int32 is malformed exactly where the
// rows end up in 20-byte tuples: an on-disk warehouse refuses the batch
// with ErrMeasureRange before anything is journaled — stored, the amount
// would be answered while it is a delta and lost at the next compaction —
// and refuses to build over such a table; the in-memory engine takes any
// int64.
func TestAppendValidation(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	total, err := ParseQuery(star, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range ingestBackends {
		t.Run(bk.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month", Table: tab}, bk.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.Append(ctx, nil); err != nil {
				t.Fatal("empty append:", err)
			}
			good := splitRows(tab, 0, 3)
			if err := w.Append(ctx, good); err != nil {
				t.Fatal(err)
			}
			before, _, err := w.Query(total).Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			journal := func() []byte {
				if w.store.Current().B.Disk == nil {
					return nil
				}
				b, err := os.ReadFile(filepath.Join(storeRoot(t, tmp), "delta.dat"))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			stBefore, logBefore := w.ServingStats(), journal()
			if err := w.Append(ctx, []FactRow{{Leaves: []int32{1, 2}}}); err == nil {
				t.Fatal("short leaves accepted")
			}
			if err := w.Append(ctx, []FactRow{{Leaves: []int32{99, 0, 0}}}); err == nil {
				t.Fatal("out-of-range leaf accepted")
			}
			big := FactRow{Leaves: good[0].Leaves, UnitsSold: 1, DollarSales: 1 << 33, Cost: -1}
			err = w.Append(ctx, []FactRow{good[1], big})
			if onDisk := logBefore != nil; onDisk != errors.Is(err, ErrMeasureRange) || (onDisk && !strings.Contains(err.Error(), "row 1: DollarSales")) {
				t.Fatalf("append of DollarSales 1<<33 (on disk: %v): %v", onDisk, err)
			}
			if err != nil {
				if st := w.ServingStats(); st.Appends != stBefore.Appends || st.DeltaRows != stBefore.DeltaRows || !bytes.Equal(journal(), logBefore) {
					t.Fatalf("failed appends changed state or the journal: %+v, was %+v", st, stBefore)
				}
				if after, _, err := w.Query(total).Execute(ctx); err != nil || !reflect.DeepEqual(after, before) {
					t.Fatalf("failed appends changed the answer: %+v, %v; was %+v", after, err, before)
				}
				wide := prefixTable(tab, tab.N())
				wide.Cost = append([]int64(nil), tab.Cost...)
				wide.Cost[5] = -1 << 40
				w2, err := Open(ctx, Config{Star: star, Fragmentation: "time::month", Table: wide}, bk.opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer w2.Close()
				if _, _, err := w2.Query(total).Execute(ctx); !errors.Is(err, ErrMeasureRange) || !strings.Contains(err.Error(), "row 5: Cost") {
					t.Fatalf("building the store over Cost -1<<40: %v", err)
				}
				return
			}
			// In memory the amount is served, as a delta and compacted.
			want := before
			want.Count, want.UnitsSold, want.DollarSales, want.Cost = want.Count+2, want.UnitsSold+good[1].UnitsSold+1, want.DollarSales+good[1].DollarSales+1<<33, want.Cost+good[1].Cost-1
			for _, compacted := range []bool{false, true} {
				if compacted {
					if err := w.Compact(ctx); err != nil {
						t.Fatal(err)
					}
				}
				if got, _, err := w.Query(total).Execute(ctx); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("compacted %v: %+v, %v; want %+v", compacted, got, err, want)
				}
			}
		})
	}
}

// TestCompactionDoesNotBlockOrChangeResults runs 16 concurrent query
// streams while compactions roll the epoch underneath them: admission
// must never fail and every result must stay byte-identical to the
// pre-compaction answer, since no rows are added while the streams run.
func TestCompactionDoesNotBlockOrChangeResults(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	full := MustGenerateData(star, 8)
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Table: prefixTable(full, full.N()/2)},
		WithDisks(3, RoundRobin), WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(ctx, splitRows(full, full.N()/2, full.N())); err != nil {
		t.Fatal(err)
	}

	queries := make([]Query, len(ingestQueries))
	want := make([]Result, len(ingestQueries))
	for i, text := range ingestQueries {
		q, err := ParseQuery(star, text)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
		if want[i], _, err = w.Query(q).Execute(ctx); err != nil {
			t.Fatal(err)
		}
	}

	const streams = 16
	const perStream = 12
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	sawEpoch1 := make(chan struct{}, streams*perStream)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				qi := (s + i) % len(queries)
				got, st, err := w.Query(queries[qi]).Execute(ctx)
				if err != nil {
					errs <- fmt.Errorf("stream %d: %v", s, err)
					return
				}
				if !reflect.DeepEqual(got, want[qi]) {
					errs <- fmt.Errorf("stream %d epoch %d: query %d diverged", s, st.Epoch, qi)
					return
				}
				if st.Epoch >= 1 {
					select {
					case sawEpoch1 <- struct{}{}:
					default:
					}
				}
			}
		}(s)
	}
	// Compact mid-flight: the first run folds the deltas, later ones are
	// no-ops — either way queries keep being admitted and agreeing.
	if err := w.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(sawEpoch1) == 0 {
		t.Log("note: no stream observed epoch 1 (compaction finished after the streams)")
	}
	st := w.ServingStats()
	if st.QueriesAdmitted < streams*perStream {
		t.Fatalf("admitted %d queries, want >= %d", st.QueriesAdmitted, streams*perStream)
	}
}

// TestIngestHammer interleaves Append, Execute, Compact and Close on one
// shared warehouse under the race detector: every operation must either
// succeed or fail with ErrClosed, and Close must drain cleanly.
func TestIngestHammer(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	ctx := context.Background()
	star := TinySchema()
	full := MustGenerateData(star, 8)
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Table: prefixTable(full, full.N()/2)},
		WithDisks(3, GapRoundRobin), WithCompression(), WithAutoCompaction(64))
	if err != nil {
		t.Fatal(err)
	}
	rootDir := ""
	q, err := ParseQuery(star, "time::month=1 group by product::group")
	if err != nil {
		t.Fatal(err)
	}
	// Warm the backend so the hammer races serving, not the lazy build.
	if _, _, err := w.Query(q).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	rootDir = storeRoot(t, tmp)

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
				if _, _, err := w.Query(q).Execute(ctx); !ok(err) {
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
		// Close races the workers above; everything after it must drain to
		// ErrClosed and the files must be gone.
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
	if _, _, err := w.Query(q).Execute(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("execute after close: %v", err)
	}
	if err := w.Append(ctx, nil); err != nil {
		t.Fatalf("empty append after close: %v", err)
	}
	if _, err := os.Stat(rootDir); !os.IsNotExist(err) {
		t.Fatalf("owned root %s not removed: %v", rootDir, err)
	}
}

// TestCloseAfterFailedBuild is the error-path regression for the owned
// temporary directory: when the lazy first-Execute backend build fails
// partway (here: a dimension whose cardinality exceeds the store's
// uint16 keys, caught only by storage.Build after the temp dir was
// created), the directory must be removed immediately — even if Close
// is never called — and Close must still succeed.
func TestCloseAfterFailedBuild(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	ctx := context.Background()
	star := &Star{
		Name: "overflow",
		Dims: []Dimension{
			{Name: "big", Levels: []Level{{Name: "top", Card: 2}, {Name: "leaf", Card: 1 << 17}}},
			{Name: "small", Levels: []Level{{Name: "only", Card: 2}}},
		},
		Density:   0.0001,
		TupleSize: 16,
		PageSize:  4096,
	}
	icfg := IndexConfig{{Kind: SimpleIndexes}, {Kind: SimpleIndexes}}
	w, err := Open(ctx, Config{Star: star, Fragmentation: "small::only", Indexes: icfg}, WithOnDisk(""))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(star, "small::only=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Query(q).Execute(ctx); err == nil {
		t.Fatal("build over uint16-overflowing dimension succeeded")
	}
	// The owned temp root must already be gone, before Close.
	ents, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("leaked %s after failed build", filepath.Join(tmp, e.Name()))
	}
	if err := w.Close(); err != nil {
		t.Fatal("close after failed build:", err)
	}
}
