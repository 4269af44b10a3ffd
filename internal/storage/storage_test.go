package storage

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/schema"
)

// newTestExecutor pairs the store with its bitmap file on a scheduler of
// the given size (values below 1 mean GOMAXPROCS) that is closed with the
// test.
func newTestExecutor(t testing.TB, store *Store, bf *BitmapFile, workers int) *Executor {
	t.Helper()
	sched := exec.NewScheduler(workers)
	t.Cleanup(sched.Close)
	ex, err := NewExecutor(store, bf, sched)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// execute runs q's grand total with no deltas.
func execute(ex *Executor, q frag.Query) (Aggregate, IOStats, error) {
	q.GroupBy = nil // grouping never changes the grand total
	res, st, err := ex.ExecuteGroupedDeltas(context.Background(), q, kernel.Deltas{})
	return res.Aggregate, st, err
}

// TestNilSchedulerIsAnError: the executor owns no pool, so NewExecutor
// and BuildBackend refuse a nil scheduler with an error — and BuildBackend
// leaves no file open behind it.
func TestNilSchedulerIsAnError(t *testing.T) {
	s, tab, store, bf := buildStore(t, "time::month, product::group")
	if ex, err := NewExecutor(store, bf, nil); err == nil || ex != nil {
		t.Errorf("NewExecutor(nil scheduler) = %v, %v; want nil and an error", ex, err)
	}
	fds := openFDs()
	be, err := BuildBackend(t.TempDir(), tab, store.spec, frag.APB1Indexes(s), BackendConfig{Compress: true,
		Placement: alloc.Placement{Disks: 2, Scheme: alloc.RoundRobin, Staggered: true}})
	if err == nil || be != nil {
		t.Fatalf("BuildBackend(nil scheduler) = %v, %v; want nil and an error", be, err)
	}
	if n := openFDs(); fds >= 0 && n > fds {
		t.Errorf("%d file descriptors before the refused build, %d after", fds, n)
	}
}

// openFDs counts the process's open file descriptors (-1 where /proc is
// absent).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// buildStore creates a store + bitmap file for the tiny schema in a temp
// dir.
func buildStore(t testing.TB, fragText string) (*schema.Star, *data.Table, *Store, *BitmapFile) {
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
	bf, err := BuildBitmaps(dir, store, icfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		store.Close()
		bf.Close()
	})
	return s, tab, store, bf
}

func TestStoreRoundTripAllRows(t *testing.T) {
	s, tab, store, _ := buildStore(t, "time::month, product::group")
	// Every generated row must be stored exactly once.
	total := 0
	sumDollars := int64(0)
	for _, id := range store.Fragments() {
		err := store.scanFragment(id, func(tp tuple) {
			total++
			sumDollars += int64(tp.DollarSales)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != tab.N() {
		t.Fatalf("stored rows = %d, want %d", total, tab.N())
	}
	var want int64
	for i := 0; i < tab.N(); i++ {
		want += tab.DollarSales[i]
	}
	if sumDollars != want {
		t.Fatalf("sum dollars = %d, want %d", sumDollars, want)
	}
	_ = s
}

// TestBuildRowsPinned pins the rows a build stores, as the oracle scan
// decodes them, for the store whose bytes the root package's
// TestBuildBytesPinned pins: APB1Scaled(60), seed 1, "time::month,
// product::group". The digest runs over every fragment in allocation
// order and, per row, its keys and then its three measures, little
// endian, so it holds across a change of the page layout that changes
// the file digests.
func TestBuildRowsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an APB1Scaled(60) store")
	}
	s := schema.APB1Scaled(60)
	dir := t.TempDir()
	store, err := Build(dir, data.MustGenerate(s, 1), frag.MustParse(s, "time::month, product::group"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	h := sha256.New()
	for _, id := range store.Fragments() {
		if err := store.scanFragment(id, func(tp tuple) {
			binary.Write(h, binary.LittleEndian, tp.Keys)
			binary.Write(h, binary.LittleEndian, [...]int32{tp.UnitsSold, tp.DollarSales, tp.Cost})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "ab8c7c58d293e46c8ccd59061effc161d4cf2b27232b1a356270935fd39b410b"; got != want {
		t.Errorf("row stream sha256 = %s, want %s", got, want)
	}
}

func TestStoreFragmentMembership(t *testing.T) {
	s, _, store, _ := buildStore(t, "time::month, product::group")
	spec := store.spec
	// Every tuple in a fragment must map back to that fragment id.
	leaf := make([]int, len(s.Dims))
	for _, id := range store.Fragments() {
		err := store.scanFragment(id, func(tp tuple) {
			for d := range tp.Keys {
				leaf[d] = int(tp.Keys[d])
			}
			if got := spec.ID(spec.CoordOf(leaf)); got != id {
				t.Fatalf("tuple in fragment %d maps to %d", id, got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenReloadsDirectory(t *testing.T) {
	s := schema.Tiny()
	tab := data.MustGenerate(s, 21)
	spec := frag.MustParse(s, "time::month, product::group")
	dir := t.TempDir()
	store, err := Build(dir, tab, spec)
	if err != nil {
		t.Fatal(err)
	}
	frags := append([]int64(nil), store.Fragments()...)
	store.Close()

	re, err := reopen(dir, s, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(re.Fragments()) != len(frags) {
		t.Fatalf("reopened fragments = %d, want %d", len(re.Fragments()), len(frags))
	}
	total := 0
	for _, id := range re.Fragments() {
		if err := re.scanFragment(id, func(tuple) { total++ }); err != nil {
			t.Fatal(err)
		}
	}
	if total != tab.N() {
		t.Fatalf("reopened rows = %d, want %d", total, tab.N())
	}
	// A wrong page size fails.
	s2 := schema.Tiny()
	s2.PageSize = 8192
	if _, err := reopen(dir, s2, spec); err == nil {
		t.Fatal("page size mismatch accepted")
	}
	if _, err := reopen(filepath.Join(dir, "nope"), s, spec); err == nil {
		t.Fatal("missing dir accepted")
	}
}

// validMeta returns the meta file of a store built over Tiny, and the
// schema and spec to reopen it with.
func validMeta(t testing.TB) (meta []byte, s *schema.Star, spec *frag.Spec) {
	t.Helper()
	s = schema.Tiny()
	spec = frag.MustParse(s, "time::month, product::group")
	dir := t.TempDir()
	store, err := Build(dir, data.MustGenerate(s, 21), spec)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	if meta, err = os.ReadFile(filepath.Join(dir, metaFileName)); err != nil {
		t.Fatal(err)
	}
	return meta, s, spec
}

// withInt64 returns meta with the int64 at byte offset off set to v.
func withInt64(meta []byte, off int, v int64) []byte {
	out := slices.Clone(meta)
	binary.LittleEndian.PutUint64(out[off:], uint64(v))
	return out
}

// TestOpenRejectsCorruptMeta: negative and oversized counts, a checksum
// table that disagrees with the directory, and a file cut at any byte
// are errors — never a panic, never an allocation sized by a corrupt
// count. A formatV1 or formatV2 file, whose fact pages held row tuples,
// is refused by an error that names its format.
func TestOpenRejectsCorruptMeta(t *testing.T) {
	v3, s, spec := validMeta(t)
	n := int(binary.LittleEndian.Uint64(v3[24:]))
	table := 32 + 32*n // offset of the checksum table length
	bad := map[string][]byte{
		"fragments=-1":    withInt64(v3, 24, -1),
		"fragments=2^40":  withInt64(v3, 24, 1<<40),
		"table=-1":        withInt64(v3, table, -1),
		"table=2^40":      withInt64(v3, table, 1<<40),
		"table=pages+1":   withInt64(v3, table, int64(len(v3)-table-8)/4+1),
		"rows=-1":         withInt64(v3, 32+24, -1),
		"pages=-1":        withInt64(v3, 32+16, -1),
		"pageoff=2^62":    withInt64(v3, 32+8, 1<<62),
		"duplicate id":    withInt64(v3, 32+32, int64(binary.LittleEndian.Uint64(v3[32:]))),
		"trailing byte":   append(slices.Clone(v3), 0),
		"format 1":        withInt64(v3[:table], 8, 1),
		"format 1, table": withInt64(v3, 8, 1),
		"format 2":        withInt64(v3, 8, 2),
	}
	for i := range v3 {
		bad[fmt.Sprintf("v3 cut at %d", i)] = v3[:i]
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, factFileName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, meta := range bad {
		if err := os.WriteFile(filepath.Join(dir, metaFileName), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if store, err := reopen(dir, s, spec); err == nil {
			store.Close()
			t.Errorf("%s: accepted", name)
		} else if strings.HasPrefix(name, "format ") && !strings.Contains(err.Error(), name[:8]) {
			t.Errorf("%s: %v does not name the format", name, err)
		}
	}
}

// FuzzStoreMeta: arbitrary meta file bytes — a valid formatV3 file, the
// formatV1 and formatV2 files it would have been and their mutations —
// parse (readMeta, the whole of what reopen does with them) as an error,
// or as a directory encodeMeta writes back byte for byte; a formatV1 or
// formatV2 file cannot re-encode, so it must be refused. Never a panic.
func FuzzStoreMeta(f *testing.F) {
	v3, s, spec := validMeta(f)
	table := 32 + 32*int(binary.LittleEndian.Uint64(v3[24:]))
	f.Add(v3)
	f.Add(withInt64(v3[:table], 8, 1))
	f.Add(withInt64(v3, 8, 2))
	f.Add(withInt64(v3, table, -1))
	f.Add(withInt64(v3, 24, 1<<40))
	f.Fuzz(func(t *testing.T, meta []byte) {
		store := newStore(s, spec, nil)
		if store.readMeta(meta) != nil {
			return
		}
		if got := store.encodeMeta(nil); !bytes.Equal(got, meta) {
			t.Fatalf("accepted meta file does not round-trip:\n%x\nencodes as\n%x", meta, got)
		}
	})
}

func TestExecutorMatchesEngineAndScan(t *testing.T) {
	s, tab, store, bf := buildStore(t, "time::month, product::group")
	ex := newTestExecutor(t, store, bf, 0)
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 200; iter++ {
		var q frag.Query
		for di := range s.Dims {
			if rng.Intn(2) == 0 {
				continue
			}
			li := rng.Intn(s.Dims[di].Depth())
			q.Preds = append(q.Preds, frag.Pred{Dim: di, Level: li, Member: rng.Intn(s.Dims[di].Levels[li].Card)})
		}
		if len(q.Preds) == 0 {
			continue
		}
		got, _, err := execute(ex, q)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		want := engine.Scan(tab, q)
		if got.Count != want.Count || got.DollarSales != want.DollarSales ||
			got.UnitsSold != want.UnitsSold || got.Cost != want.Cost {
			t.Fatalf("iter %d query %v: got %+v, want %+v", iter, q, got, want)
		}
	}
}

func TestExecutorIOAccounting(t *testing.T) {
	s, _, store, bf := buildStore(t, "time::month, product::group")
	ex := newTestExecutor(t, store, bf, 0)
	pd := s.DimIndex(schema.DimProduct)
	td := s.DimIndex(schema.DimTime)
	cd := s.DimIndex(schema.DimCustomer)
	group := s.Dims[pd].LevelIndex(schema.LvlGroup)
	month := s.Dims[td].LevelIndex(schema.LvlMonth)
	store1 := s.Dims[cd].LevelIndex(schema.LvlStore)

	// Q1 (IOC1): no bitmap I/O; reads exactly the one fragment's pages.
	q1 := frag.Query{Preds: []frag.Pred{{Dim: td, Level: month, Member: 1}, {Dim: pd, Level: group, Member: 0}}}
	_, st, err := execute(ex, q1)
	if err != nil {
		t.Fatal(err)
	}
	if st.BitmapPages != 0 || st.BitmapIOs != 0 {
		t.Errorf("Q1 read %d bitmap pages", st.BitmapPages)
	}
	spec := store.spec
	id := spec.ID([]int{1, 0})
	if loc, ok := store.Loc(id); ok && st.FactPages != int64(loc.Pages) {
		t.Errorf("Q1 fact pages = %d, want %d", st.FactPages, loc.Pages)
	}

	// Unsupported query (1STORE): bitmap I/O on every fragment.
	qs := frag.Query{Preds: []frag.Pred{{Dim: cd, Level: store1, Member: 2}}}
	_, st2, err := execute(ex, qs)
	if err != nil {
		t.Fatal(err)
	}
	if st2.BitmapIOs == 0 {
		t.Error("1STORE performed no bitmap I/O")
	}
}

// sparseSchema has a high-cardinality customer store so that store
// selections hit only a few rows per multi-page fragment — the setting
// where prefetch-granule skipping is observable.
func sparseSchema() *schema.Star {
	return &schema.Star{
		Name: "sparse",
		Dims: []schema.Dimension{
			{Name: schema.DimProduct, Levels: []schema.Level{{Name: schema.LvlGroup, Card: 4}, {Name: schema.LvlCode, Card: 64}}},
			{Name: schema.DimCustomer, Levels: []schema.Level{{Name: schema.LvlRetailer, Card: 8}, {Name: schema.LvlStore, Card: 512}}},
			{Name: schema.DimTime, Levels: []schema.Level{{Name: schema.LvlQuarter, Card: 2}, {Name: schema.LvlMonth, Card: 8}}},
		},
		Density:   0.5,
		TupleSize: 18,
		PageSize:  4096,
	}
}

func TestExecutorSkipsHitFreePages(t *testing.T) {
	s := sparseSchema()
	tab := data.MustGenerate(s, 5)
	spec := frag.MustParse(s, "time::month, product::group")
	dir := t.TempDir()
	store, err := Build(dir, tab, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	icfg := make(frag.IndexConfig, len(s.Dims))
	for i := range icfg {
		icfg[i] = frag.IndexSpec{Kind: frag.EncodedIndex}
	}
	bf, err := BuildBitmaps(dir, store, icfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()

	cd := s.DimIndex(schema.DimCustomer)
	q := frag.Query{Preds: []frag.Pred{{Dim: cd, Level: s.Dims[cd].LevelIndex(schema.LvlStore), Member: 2}}}
	ex := newTestExecutor(t, store, bf, 0)
	ex.PrefetchFact = 1
	got, st, err := execute(ex, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := engine.Scan(tab, q); got.Count != want.Count || got.DollarSales != want.DollarSales {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	var totalPages int64
	for _, fid := range store.Fragments() {
		loc, _ := store.Loc(fid)
		totalPages += int64(loc.Pages)
	}
	if st.FactPages >= totalPages/2 {
		t.Errorf("sparse 1STORE read %d of %d fact pages — expected substantial skipping", st.FactPages, totalPages)
	}
	if st.RowsRead != st.FactPages && st.RowsRead != got.Count {
		t.Logf("rows read %d, hits %d", st.RowsRead, got.Count)
	}
	if st.RowsRead != got.Count {
		t.Errorf("rows read = %d, want exactly the %d hits", st.RowsRead, got.Count)
	}
}

func TestExecutorPrefetchGranuleEffect(t *testing.T) {
	// Larger granules read at least as many pages in at most as many I/Os.
	s, _, store, bf := buildStore(t, "time::month, product::group")
	cd := s.DimIndex(schema.DimCustomer)
	store1 := s.Dims[cd].LevelIndex(schema.LvlStore)
	q := frag.Query{Preds: []frag.Pred{{Dim: cd, Level: store1, Member: 1}}}

	ex1 := newTestExecutor(t, store, bf, 0)
	ex1.PrefetchFact = 1
	_, st1, err := execute(ex1, q)
	if err != nil {
		t.Fatal(err)
	}
	ex8 := newTestExecutor(t, store, bf, 0)
	ex8.PrefetchFact = 8
	_, st8, err := execute(ex8, q)
	if err != nil {
		t.Fatal(err)
	}
	if st8.FactIOs > st1.FactIOs {
		t.Errorf("granule 8 used more I/Os (%d) than granule 1 (%d)", st8.FactIOs, st1.FactIOs)
	}
	if st8.FactPages < st1.FactPages {
		t.Errorf("granule 8 read fewer pages (%d) than granule 1 (%d)", st8.FactPages, st1.FactPages)
	}
}

func TestBitmapEliminationOnDisk(t *testing.T) {
	// Bitmaps at or above the fragmentation level must not be stored.
	s, _, _, bf := buildStore(t, "time::month, product::group")
	td := s.DimIndex(schema.DimTime)
	month := s.Dims[td].LevelIndex(schema.LvlMonth)
	for _, d := range bf.Descs() {
		if d.Dim == td {
			t.Fatalf("time bitmap stored despite time::month fragmentation: %+v", d)
		}
	}
	// Asking for an eliminated bitmap errors.
	if _, _, err := readBitmap(bf, 0, BitmapDesc{Dim: td, Level: month, Member: 0, Simple: true}); err == nil {
		t.Fatal("eliminated bitmap readable")
	}
}

func TestTupleSizeMatchesPaper(t *testing.T) {
	// APB-1: 4 dimensions -> 4*2 + 12 = 20 bytes, the paper's tuple size;
	// 204 tuples per 4 KB page.
	s := schema.APB1()
	if got := TupleSize(s); got != 20 {
		t.Fatalf("tuple size = %d, want 20", got)
	}
	if got := TuplesPerPage(s); got != 204 {
		t.Fatalf("tuples per page = %d, want 204", got)
	}
}

// TestBuildRejectsWideDimensions: a dimension wider than the uint16 keys,
// and a page size a column page cannot start 8-byte aligned on (4092, a
// multiple of 4), are Build errors.
func TestBuildRejectsWideDimensions(t *testing.T) {
	for name, bend := range map[string]func(*schema.Star){
		"wide dimension": func(s *schema.Star) { s.Dims[0].Levels[len(s.Dims[0].Levels)-1].Card = 1 << 17 },
		"page size 4092": func(s *schema.Star) { s.PageSize = 4092 },
	} {
		s := schema.Tiny()
		bend(s)
		// The schema may be invalid for generation too: build directly with
		// a fake table sharing the star.
		if _, err := Build(t.TempDir(), &data.Table{Star: s}, frag.MustParse(s, "time::month")); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// classQueries returns one query per paper query class Q1-Q4 plus an
// unsupported one, for the tiny schema under FMonthGroup.
func classQueries(t *testing.T, s *schema.Star, spec *frag.Spec) map[string]frag.Query {
	t.Helper()
	pd := s.DimIndex(schema.DimProduct)
	td := s.DimIndex(schema.DimTime)
	cd := s.DimIndex(schema.DimCustomer)
	group := s.Dims[pd].LevelIndex(schema.LvlGroup)
	code := s.Dims[pd].LevelIndex(schema.LvlCode)
	month := s.Dims[td].LevelIndex(schema.LvlMonth)
	quarter := s.Dims[td].LevelIndex(schema.LvlQuarter)
	store := s.Dims[cd].LevelIndex(schema.LvlStore)
	qs := map[string]frag.Query{
		"Q1":          {Preds: []frag.Pred{{Dim: td, Level: month, Member: 1}, {Dim: pd, Level: group, Member: 0}}},
		"Q2":          {Preds: []frag.Pred{{Dim: pd, Level: code, Member: 3}}},
		"Q3":          {Preds: []frag.Pred{{Dim: td, Level: quarter, Member: 1}}},
		"Q4":          {Preds: []frag.Pred{{Dim: pd, Level: code, Member: 5}, {Dim: td, Level: quarter, Member: 0}}},
		"unsupported": {Preds: []frag.Pred{{Dim: cd, Level: store, Member: 2}}},
	}
	for name, q := range qs {
		want := name
		if want == "unsupported" {
			if got := spec.Classify(q); got != frag.Unsupported {
				t.Fatalf("%s query classified %v", name, got)
			}
			continue
		}
		if got := spec.Classify(q).String(); got != want {
			t.Fatalf("%s query classified %s", name, got)
		}
	}
	return qs
}

// TestExecutorParallelMatchesSequential asserts the determinism guarantee:
// at every worker count the parallel executor returns results identical to
// the sequential path — same Aggregate and same IOStats — for all four
// query classes Q1-Q4 and an unsupported query.
func TestExecutorParallelMatchesSequential(t *testing.T) {
	s, tab, store, bf := buildStore(t, "time::month, product::group")
	for name, q := range classQueries(t, s, store.spec) {
		seq := newTestExecutor(t, store, bf, 1)
		wantAgg, wantSt, err := execute(seq, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if oracle := engine.Scan(tab, q); wantAgg.Count != oracle.Count || wantAgg.DollarSales != oracle.DollarSales {
			t.Fatalf("%s: sequential result %+v disagrees with scan %+v", name, wantAgg, oracle)
		}
		for _, workers := range []int{2, 4, 8, 0} { // 0 = GOMAXPROCS default
			par := newTestExecutor(t, store, bf, workers)
			gotAgg, gotSt, err := execute(par, q)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if gotAgg != wantAgg {
				t.Errorf("%s workers=%d: aggregate %+v != sequential %+v", name, workers, gotAgg, wantAgg)
			}
			if gotSt != wantSt {
				t.Errorf("%s workers=%d: IOStats %+v != sequential %+v", name, workers, gotSt, wantSt)
			}
		}
	}
}

// TestExecutorConcurrentQueries exercises one shared executor (and thus
// the shared files and the internal/exec pool) under concurrent queries —
// the -race target for the storage layer.
func TestExecutorConcurrentQueries(t *testing.T) {
	s, tab, store, bf := buildStore(t, "time::month, product::group")
	ex := newTestExecutor(t, store, bf, 4)
	qs := classQueries(t, s, store.spec)
	var wg sync.WaitGroup
	for name, q := range qs {
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(name string, q frag.Query) {
				defer wg.Done()
				for rep := 0; rep < 5; rep++ {
					got, _, err := execute(ex, q)
					if err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
					want := engine.Scan(tab, q)
					if got.Count != want.Count || got.DollarSales != want.DollarSales ||
						got.UnitsSold != want.UnitsSold || got.Cost != want.Cost {
						t.Errorf("%s: got %+v, want %+v", name, got, want)
						return
					}
				}
			}(name, q)
		}
	}
	wg.Wait()
}

// TestExecutorContextCancellation asserts that a cancelled context aborts
// the scatter and surfaces the cancellation.
func TestExecutorContextCancellation(t *testing.T) {
	s, _, store, bf := buildStore(t, "time::month, product::group")
	cd := s.DimIndex(schema.DimCustomer)
	q := frag.Query{Preds: []frag.Pred{{Dim: cd, Level: s.Dims[cd].LevelIndex(schema.LvlStore), Member: 2}}}
	ex := newTestExecutor(t, store, bf, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ex.ExecuteGroupedDeltas(ctx, q, kernel.Deltas{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
