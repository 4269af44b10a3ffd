package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
)

// compactFixture is a sparse table under month×group with 512-byte pages
// (28 tuples a page, 32 fragments of about 400 rows), split per fragment
// into the rows a base store starts from and the rows left to append.
type compactFixture struct {
	spec  *frag.Spec
	icfg  frag.IndexConfig
	ix    *frag.DeltaIndex
	full  *data.Table
	spare map[int64][]int // per fragment: rows of full not yet in the store, in table order
	rows  *data.Table     // every row in the store or a sealed delta, in arrival order: the oracle's input
	seq   uint64
}

// newCompactFixture puts the first 60 % of every fragment's rows into the
// base — none at all for the fragments listed absent.
func newCompactFixture(t *testing.T, absent ...int64) *compactFixture {
	t.Helper()
	star := sparseSchema()
	star.PageSize, star.Density = 512, 0.1
	fx := &compactFixture{
		spec:  frag.MustParse(star, "time::month, product::group"),
		icfg:  make(frag.IndexConfig, len(star.Dims)),
		full:  data.MustGenerate(star, 9),
		spare: make(map[int64][]int),
		rows:  &data.Table{Star: star, Dims: make([][]int32, len(star.Dims))},
	}
	for i := range fx.icfg {
		fx.icfg[i] = frag.IndexSpec{Kind: frag.EncodedIndex}
	}
	var err error
	if fx.ix, err = frag.NewDeltaIndex(fx.spec, fx.icfg); err != nil {
		t.Fatal(err)
	}
	buf := make([]int, len(star.Dims))
	for i := 0; i < fx.full.N(); i++ {
		id := fx.spec.IDOf(fx.full.LeafMembers(i, buf))
		fx.spare[id] = append(fx.spare[id], i)
	}
	inBase := make([]bool, fx.full.N())
	for id, rows := range fx.spare {
		if slices.Contains(absent, id) {
			continue
		}
		n := len(rows) * 6 / 10
		for _, i := range rows[:n] {
			inBase[i] = true
		}
		fx.spare[id] = rows[n:]
	}
	// Table order, so that the base is what a from-scratch build would see.
	for i, in := range inBase {
		if in {
			fx.arrive(i)
		}
	}
	return fx
}

// arrive appends row i of the full table to the oracle's input.
func (fx *compactFixture) arrive(i int) {
	for d := range fx.rows.Dims {
		fx.rows.Dims[d] = append(fx.rows.Dims[d], fx.full.Dims[d][i])
	}
	fx.rows.UnitsSold = append(fx.rows.UnitsSold, fx.full.UnitsSold[i])
	fx.rows.DollarSales = append(fx.rows.DollarSales, fx.full.DollarSales[i])
	fx.rows.Cost = append(fx.rows.Cost, fx.full.Cost[i])
}

// seal takes the next n spare rows of fragment id as one sealed segment
// on top of set.
func (fx *compactFixture) seal(t *testing.T, set *frag.DeltaSet, id int64, n int) *frag.DeltaSet {
	t.Helper()
	if len(fx.spare[id]) < n {
		t.Fatalf("fragment %d has %d spare rows, want %d", id, len(fx.spare[id]), n)
	}
	sb := fx.ix.NewSegment(id)
	leaves := make([]int32, len(fx.full.Dims))
	for _, i := range fx.spare[id][:n] {
		for d := range leaves {
			leaves[d] = fx.full.Dims[d][i]
		}
		sb.Add(leaves, fx.full.UnitsSold[i], fx.full.DollarSales[i], fx.full.Cost[i])
		fx.arrive(i)
	}
	fx.spare[id] = fx.spare[id][n:]
	fx.seq++
	return set.With(sb.Seal(fx.seq))
}

// sameFiles fails unless the three files of both directories are equal
// byte for byte.
func sameFiles(t *testing.T, what, got, want string) {
	t.Helper()
	for _, name := range []string{factFileName, bitmapFileName, metaFileName} {
		g, err := os.ReadFile(filepath.Join(got, name))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(want, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: %s differs from the from-scratch build (%d vs %d bytes)", what, name, len(g), len(w))
		}
	}
}

// TestCompactByteIdentical: after every fold, the three files of a
// fragment-local compaction — and the in-memory directories and checksum
// tables over them — are those of BuildBackend over the same rows in
// arrival order, compressed and materialised, declustered and not. The
// folds cover: deltas landing in fragments without base rows (new ids at
// the start, in the middle and at the end of the allocation order),
// several segments for one fragment, a delta that exactly fills a
// fragment's last page, a fragment whose bitmap block changes its unit
// count, fragments carried through three compactions in a row (a copy of
// a copy), a fragment created by one compaction and touched by the next,
// and an empty delta set.
func TestCompactByteIdentical(t *testing.T) {
	sched := exec.NewScheduler(2)
	defer sched.Close()
	for _, compress := range []bool{false, true} {
		for _, disks := range []int{0, 3} {
			t.Run(fmt.Sprintf("compress=%v/disks=%d", compress, disks), func(t *testing.T) {
				fx := newCompactFixture(t, 0, 13, 31)
				cfg := BackendConfig{Compress: compress, Sched: sched}
				if disks > 0 {
					cfg.Placement = alloc.Placement{Disks: disks, Scheme: alloc.RoundRobin}
				}
				cur, err := BuildBackend(t.TempDir(), fx.rows, fx.spec, fx.icfg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { cur.Close() }()
				tpp := TuplesPerPage(fx.full.Star)
				unitsChanged := false
				folds := []func(set *frag.DeltaSet) *frag.DeltaSet{
					func(set *frag.DeltaSet) *frag.DeltaSet {
						for _, id := range []int64{31, 0, 13} {
							set = fx.seal(t, set, id, 30)
						}
						set = fx.seal(t, set, 5, 10)
						return fx.seal(t, set, 5, 5)
					},
					func(set *frag.DeltaSet) *frag.DeltaSet {
						loc, _ := cur.Store.Loc(7)
						set = fx.seal(t, set, 7, tpp-int(loc.Rows)%tpp) // fills the last page exactly
						return fx.seal(t, set, 13, 3)
					},
					func(set *frag.DeltaSet) *frag.DeltaSet {
						set = fx.seal(t, set, 20, len(fx.spare[20]))
						return fx.seal(t, set, 21, 1)
					},
					func(set *frag.DeltaSet) *frag.DeltaSet { return set },
				}
				for round, fold := range folds {
					what := fmt.Sprintf("fold %d", round)
					set := fold(nil)
					dir, oracleDir := t.TempDir(), t.TempDir()
					next, err := cur.Compact(dir, set, cfg)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					want, err := BuildBackend(oracleDir, fx.rows, fx.spec, fx.icfg, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sameFiles(t, what, dir, oracleDir)
					if !reflect.DeepEqual(next.Store.dir, want.Store.dir) || !reflect.DeepEqual(next.Store.order, want.Store.order) ||
						!reflect.DeepEqual(next.Store.sums, want.Store.sums) {
						t.Errorf("%s: fact directory or checksum table differs", what)
					}
					if !reflect.DeepEqual(next.Bitmaps.blocks, want.Bitmaps.blocks) || !reflect.DeepEqual(next.Bitmaps.sums, want.Bitmaps.sums) {
						t.Errorf("%s: bitmap directory or checksum table differs", what)
					}
					for _, id := range set.FragmentIDs() {
						if old, held := cur.Bitmaps.blocks[id]; held && old.pages() != next.Bitmaps.blocks[id].pages() {
							unitsChanged = true
						}
					}
					for _, text := range regimeQueries {
						q, err := frag.ParseQuery(fx.full.Star, text+regimeGroupBys[2])
						if err != nil {
							t.Fatal(err)
						}
						wantRes, err := engine.ScanGrouped(fx.rows, q)
						if err != nil {
							t.Fatal(err)
						}
						got, _, err := next.Exec.ExecuteGroupedDeltas(context.Background(), q, kernel.Deltas{})
						if err != nil {
							t.Fatalf("%s %q: %v", what, text, err)
						}
						if !reflect.DeepEqual(got, wantRes) {
							t.Errorf("%s %q: result differs from the scan oracle", what, text)
						}
					}
					want.Close()
					cur.Close()
					cur = next
				}
				if loc, _ := cur.Store.Loc(7); int(loc.Rows)%tpp != 0 {
					t.Errorf("fragment 7 holds %d rows: its last page was not filled exactly", loc.Rows)
				}
				if !unitsChanged {
					t.Error("no touched fragment's bitmap block changed its unit count")
				}
			})
		}
	}
}

// flipByte inverts one byte of a file.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	one := make([]byte, 1)
	if _, err := f.ReadAt(one, off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xFF
	if _, err := f.WriteAt(one, off); err != nil {
		t.Fatal(err)
	}
}

// TestCompactNeverLaundersCorruption: a corrupt page of a touched
// fragment — the last, partly filled one that is re-filled, or a full one
// that is copied and then read back for the bitmap block — fails the
// compaction with a checksum fault instead of being re-checksummed into
// a valid page; a corrupt page of a carried fragment is copied as it is,
// with its old checksum, and still fails the query that reads it.
func TestCompactNeverLaundersCorruption(t *testing.T) {
	sched := exec.NewScheduler(2)
	defer sched.Close()
	cfg := BackendConfig{Compress: true, Sched: sched}
	pageSize := int64(512)
	for _, tc := range []struct {
		name    string
		page    func(loc FragLoc) int64 // the page of fragment 5 to corrupt
		touched int64                   // the fragment the delta lands in
		fails   bool                    // whether Compact must fail
	}{
		{"last page of a touched fragment", func(loc FragLoc) int64 { return int64(loc.Pages) - 1 }, 5, true},
		{"full page of a touched fragment", func(FragLoc) int64 { return 0 }, 5, true},
		{"page of a carried fragment", func(FragLoc) int64 { return 1 }, 6, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newCompactFixture(t)
			dir := t.TempDir()
			cur, err := BuildBackend(dir, fx.rows, fx.spec, fx.icfg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			loc, _ := cur.Store.Loc(5)
			if int(loc.Rows)%TuplesPerPage(fx.full.Star) == 0 {
				t.Fatal("fragment 5 has no partly filled page")
			}
			flipByte(t, filepath.Join(dir, factFileName), (loc.PageOff+tc.page(loc))*pageSize+3)
			next, err := cur.Compact(t.TempDir(), fx.seal(t, nil, tc.touched, 4), cfg)
			var fe *FaultError
			if tc.fails {
				if !errors.As(err, &fe) || fe.Kind != FaultChecksum || fe.File != "fact" || fe.Frag != 5 {
					t.Fatalf("Compact over a corrupt page returned %v, want a checksum fault on fact fragment 5", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer next.Close()
			q, err := frag.ParseQuery(fx.full.Star, "")
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = next.Exec.ExecuteGroupedDeltas(context.Background(), q, kernel.Deltas{})
			if !errors.As(err, &fe) || fe.Kind != FaultChecksum || fe.Frag != 5 {
				t.Fatalf("query over the carried corrupt page returned %v, want a checksum fault on fragment 5", err)
			}
		})
	}
}

// TestWriterRefusesWideMeasures: a measure the 20-byte tuple cannot hold
// fails Build, and a compaction whose delta set holds one (a journal
// written before Append checked), with ErrMeasureRange naming the row —
// instead of storing the low 32 bits — and leaves no file open.
func TestWriterRefusesWideMeasures(t *testing.T) {
	sched := exec.NewScheduler(2)
	defer sched.Close()
	cfg := BackendConfig{Sched: sched}
	fx := newCompactFixture(t)
	cur, err := BuildBackend(t.TempDir(), fx.rows, fx.spec, fx.icfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	sb := fx.ix.NewSegment(5)
	leaves := make([]int32, len(fx.full.Dims))
	for d := range leaves {
		leaves[d] = fx.full.Dims[d][fx.spare[5][0]]
	}
	sb.Add(leaves, 1, 2, 3)
	sb.Add(leaves, 1, math.MaxInt32+1, 3)
	if next, err := cur.Compact(t.TempDir(), (*frag.DeltaSet)(nil).With(sb.Seal(1)), cfg); !errors.Is(err, ErrMeasureRange) || !strings.Contains(err.Error(), "row 1: DollarSales = 2147483648") {
		if err == nil {
			next.Close()
		}
		t.Fatalf("Compact over DollarSales MaxInt32+1: %v", err)
	}
	wide := *fx.rows
	wide.UnitsSold = append([]int64(nil), fx.rows.UnitsSold...)
	wide.UnitsSold[7] = math.MinInt32 - 1
	if be, err := BuildBackend(t.TempDir(), &wide, fx.spec, fx.icfg, cfg); !errors.Is(err, ErrMeasureRange) || !strings.Contains(err.Error(), "row 7: UnitsSold") {
		if err == nil {
			be.Close()
		}
		t.Fatalf("Build over UnitsSold MinInt32-1: %v", err)
	}
	if err := CheckMeasures(0, math.MinInt32, math.MaxInt32, -1); err != nil {
		t.Fatalf("the int32 limits themselves: %v", err)
	}
}

// TestCompactAllocatesForTouchedFragments: a compaction whose deltas
// touch 1 of the 32 fragments allocates at most a quarter of what one
// touching all 32 does — carried fragments cost a directory entry and a
// copy through one reused buffer.
func TestCompactAllocatesForTouchedFragments(t *testing.T) {
	sched := exec.NewScheduler(1)
	defer sched.Close()
	cfg := BackendConfig{Compress: true, Sched: sched}
	fx := newCompactFixture(t)
	cur, err := BuildBackend(t.TempDir(), fx.rows, fx.spec, fx.icfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	one := fx.seal(t, nil, 9, 20)
	var all *frag.DeltaSet
	for id := int64(0); id < 32; id++ {
		all = fx.seal(t, all, id, 20)
	}
	measure := func(set *frag.DeltaSet) uint64 {
		dir := t.TempDir()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		next, err := cur.Compact(dir, set, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		next.Close()
		return after.TotalAlloc - before.TotalAlloc
	}
	a1, a32 := measure(one), measure(all)
	t.Logf("TotalAlloc: 1 touched fragment %d B, 32 touched fragments %d B", a1, a32)
	if a1*4 > a32 {
		t.Errorf("compaction touching 1 fragment allocated %d B, more than a quarter of the %d B of one touching all 32", a1, a32)
	}
}
