package epoch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/schema"
	"repro/internal/storage"
)

// loadWorld is a warehouse under month×group (32 fragments, 512-byte
// pages of 28 tuples) that is loaded the way a time-fragmented one is:
// the base holds half the table, and the batches that follow bring rows
// of the two newest months only — 8 of the 32 fragments.
type loadWorld struct {
	star    *schema.Star
	spec    *frag.Spec
	icfg    frag.IndexConfig
	base    *data.Table
	batches [][]Row
	queries []frag.Query
}

const loadBatchRows = 24

func newLoadWorld(t *testing.T) *loadWorld {
	t.Helper()
	star := &schema.Star{
		Name: "load",
		Dims: []schema.Dimension{
			{Name: schema.DimProduct, Levels: []schema.Level{{Name: schema.LvlGroup, Card: 4}, {Name: schema.LvlCode, Card: 64}}},
			{Name: schema.DimCustomer, Levels: []schema.Level{{Name: schema.LvlRetailer, Card: 8}, {Name: schema.LvlStore, Card: 512}}},
			{Name: schema.DimTime, Levels: []schema.Level{{Name: schema.LvlQuarter, Card: 2}, {Name: schema.LvlMonth, Card: 8}}},
		},
		Density:   0.1,
		TupleSize: 18,
		PageSize:  512,
	}
	w := &loadWorld{star: star, spec: frag.MustParse(star, "time::month, product::group"), icfg: make(frag.IndexConfig, len(star.Dims))}
	for i := range w.icfg {
		w.icfg[i] = frag.IndexSpec{Kind: frag.EncodedIndex}
	}
	full := data.MustGenerate(star, 3)
	half := full.N() / 2
	w.base = tableOf(star, nil)
	for d := range full.Dims {
		w.base.Dims[d] = full.Dims[d][:half]
	}
	w.base.UnitsSold, w.base.DollarSales, w.base.Cost = full.UnitsSold[:half], full.DollarSales[:half], full.Cost[:half]
	timeDim := star.DimIndex(schema.DimTime)
	var batch []Row
	for i := half; i < full.N(); i++ {
		if full.Dims[timeDim][i] < 6 {
			continue
		}
		r := Row{Leaves: make([]int32, len(star.Dims)), UnitsSold: full.UnitsSold[i], DollarSales: full.DollarSales[i], Cost: full.Cost[i]}
		for d := range full.Dims {
			r.Leaves[d] = full.Dims[d][i]
		}
		if batch = append(batch, r); len(batch) == loadBatchRows {
			w.batches, batch = append(w.batches, batch), nil
		}
	}
	for _, text := range []string{"", "time::month=7", "time::quarter=1, customer::retailer=2 group by product::group", "customer::store=7 group by time::month"} {
		q, err := frag.ParseQuery(star, text)
		if err != nil {
			t.Fatal(err)
		}
		w.queries = append(w.queries, q)
	}
	return w
}

// tableOf returns base's rows followed by the batches' rows in arrival
// order: what a store that was built over base and acknowledged the
// batches must be indistinguishable from a from-scratch build over.
func tableOf(star *schema.Star, base *data.Table, batches ...[]Row) *data.Table {
	t := &data.Table{Star: star, Dims: make([][]int32, len(star.Dims))}
	if base != nil {
		for d := range t.Dims {
			t.Dims[d] = append(t.Dims[d], base.Dims[d]...)
		}
		t.UnitsSold = append(t.UnitsSold, base.UnitsSold...)
		t.DollarSales = append(t.DollarSales, base.DollarSales...)
		t.Cost = append(t.Cost, base.Cost...)
	}
	for _, b := range batches {
		for _, r := range b {
			for d := range t.Dims {
				t.Dims[d] = append(t.Dims[d], r.Leaves[d])
			}
			t.UnitsSold = append(t.UnitsSold, r.UnitsSold)
			t.DollarSales = append(t.DollarSales, r.DollarSales)
			t.Cost = append(t.Cost, r.Cost)
		}
	}
	return t
}

// open builds a store over the world's base in dir; the caller closes it,
// and the test's end its pool.
func (w *loadWorld) open(t *testing.T, dir string, mutate func(*Config)) *Store {
	t.Helper()
	sched := exec.NewScheduler(2)
	t.Cleanup(sched.Close)
	cfg := Config{Spec: w.spec, Indexes: w.icfg, OnDisk: dir != "", Dir: dir, Sched: sched, Closed: errors.New("store closed")}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	if err := s.Build(w.base); err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s
}

// checkOracle compares the world's queries on the store with the scan
// oracle over the given rows.
func (w *loadWorld) checkOracle(t *testing.T, what string, s *Store, rows *data.Table) {
	t.Helper()
	for _, q := range w.queries {
		out, err := run(context.Background(), s, q)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, err := engine.ScanGrouped(rows, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Gr.Result(out.Part); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %+v, oracle %+v", what, got, want)
		}
	}
}

// equalsRebuild fails unless the three files of the store's epoch are,
// byte for byte, those of BuildBackend over rows.
func (w *loadWorld) equalsRebuild(t *testing.T, what string, s *Store, epoch int64, rows *data.Table) {
	t.Helper()
	oracleDir := t.TempDir()
	want, err := storage.BuildBackend(oracleDir, rows, w.spec, w.icfg, storage.BackendConfig{Compress: s.cfg.Compress, Sched: s.Sched})
	if err != nil {
		t.Fatal(err)
	}
	want.Close()
	for _, file := range []string{"fact.dat", "bitmaps.dat", "meta.dat"} {
		got, err := os.ReadFile(filepath.Join(s.rootDir, fmt.Sprintf("epoch-%03d", epoch), file))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := os.ReadFile(filepath.Join(oracleDir, file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("%s: %s differs from the from-scratch build", what, file)
		}
	}
}

func declustered(c *Config) {
	c.Compress = true
	c.Placement = alloc.Placement{Disks: 3, Scheme: alloc.RoundRobin, Staggered: true}
}

// TestCompactEpochEqualsRebuild compacts again and again while a writer
// keeps appending: after every compaction the epoch directory holds,
// byte for byte, the three files of BuildBackend over the base rows and
// the folded batches in arrival order — whole batches, a prefix of what
// was acknowledged; the rest of the acknowledged rows are live delta
// segments (appends that arrived while the epoch was being written),
// which the next compaction folds the same way. A compaction with
// nothing to fold changes nothing.
func TestCompactEpochEqualsRebuild(t *testing.T) {
	w := newLoadWorld(t)
	for name, mutate := range map[string]func(*Config){"plain": nil, "compressed-declustered": declustered} {
		t.Run(name, func(t *testing.T) {
			s := w.open(t, t.TempDir(), mutate)
			defer func() {
				if err := s.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			defer s.End()
			if err := s.Compact(context.Background()); err != nil || s.Current().Epoch != 0 {
				t.Fatalf("Compact of an empty delta set: %v, epoch %d", err, s.Current().Epoch)
			}
			acked, folded, raced := 0, 0, false
			for round := 0; round < 12 && (round < 3 || !raced); round++ {
				// At least one batch to fold, then the writer runs beside Compact.
				if err := s.Append(w.batches[acked]); err != nil {
					t.Fatal(err)
				}
				acked++
				done := make(chan int)
				go func() {
					n := acked
					for ; n < acked+3; n++ {
						if err := s.Append(w.batches[n]); err != nil {
							t.Error(err)
							break
						}
					}
					done <- n
				}()
				err := s.Compact(context.Background())
				acked = <-done
				if err != nil {
					t.Fatal(err)
				}
				snap := s.Current()
				if snap.Epoch != int64(round+1) {
					t.Fatalf("round %d: epoch %d", round, snap.Epoch)
				}
				var stored int
				for _, id := range snap.B.Disk.Store.Fragments() {
					loc, _ := snap.B.Disk.Store.Loc(id)
					stored += int(loc.Rows)
				}
				if was := folded; (stored-w.base.N())%loadBatchRows != 0 || (stored-w.base.N())/loadBatchRows <= was {
					t.Fatalf("round %d: the store holds %d rows over a base of %d after %d folded batches", round, stored, w.base.N(), was)
				}
				folded = (stored - w.base.N()) / loadBatchRows
				if live := snap.Deltas.Rows(); live != int64((acked-folded)*loadBatchRows) {
					t.Fatalf("round %d: %d live delta rows, %d batches acknowledged, %d folded", round, live, acked, folded)
				} else if live > 0 {
					raced = true
				}
				w.equalsRebuild(t, fmt.Sprintf("round %d (%d batches folded)", round, folded), s, snap.Epoch, tableOf(w.star, w.base, w.batches[:folded]...))
				w.checkOracle(t, fmt.Sprintf("round %d", round), s, tableOf(w.star, w.base, w.batches[:acked]...))
			}
			if !raced {
				t.Error("no append ever landed while a compaction was writing its epoch")
			}
			epoch := s.Current().Epoch
			if err := s.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := s.Compact(context.Background()); err != nil || s.Current().Epoch > epoch+1 {
				t.Fatalf("Compact with nothing left to fold: %v, epoch %d after %d", err, s.Current().Epoch, epoch)
			}
		})
	}
}

// TestCompactScratchRacesAutoCompaction: the background compactor and
// explicit Compact calls write every epoch through one build scratch,
// which compactMu alone keeps them from sharing. A writer appends with
// auto-compaction due every two batches while Compact is called in a
// loop; once the writer is done, a last Compact leaves an epoch whose
// files are those of a fresh build over every acknowledged batch, and
// whose answers are the scan oracle's. Under the race detector, two
// compactions in the scratch at once are reported.
func TestCompactScratchRacesAutoCompaction(t *testing.T) {
	w := newLoadWorld(t)
	n := min(len(w.batches), 16)
	s := w.open(t, t.TempDir(), func(c *Config) { declustered(c); c.AutoCompact = 2 * loadBatchRows })
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	defer s.End()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, b := range w.batches[:n] {
			if err := s.Append(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { <-done }() // the writer is done before the store closes
	for writing := true; writing; {
		select {
		case <-done:
			writing = false
		default:
		}
		if err := s.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, rows := s.Current(), tableOf(w.star, w.base, w.batches[:n]...)
	if snap.Deltas.Rows() != 0 {
		t.Fatalf("%d delta rows left after the last compaction", snap.Deltas.Rows())
	}
	w.equalsRebuild(t, "after the last compaction", s, snap.Epoch, rows)
	w.checkOracle(t, "after the last compaction", s, rows)
}

// TestFailedCompactLeavesEpochIntact: a flipped byte in the last, partly
// filled page of a fragment the deltas touch fails the compaction with a
// checksum fault; the serving epoch, its directory and its delta set stay
// as they were, nothing of the next epoch is left behind, fragments
// elsewhere keep answering, and appending goes on.
func TestFailedCompactLeavesEpochIntact(t *testing.T) {
	w := newLoadWorld(t)
	s := w.open(t, t.TempDir(), nil)
	defer s.Close()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	defer s.End()
	if err := s.Append(w.batches[0]); err != nil {
		t.Fatal(err)
	}
	buf := make([]int, len(w.star.Dims))
	for d, leaf := range w.batches[0][0].Leaves {
		buf[d] = int(leaf)
	}
	id := w.spec.IDOf(buf)
	loc, _ := s.Current().B.Disk.Store.Loc(id)
	if int(loc.Rows)%storage.TuplesPerPage(w.star) == 0 {
		t.Fatalf("fragment %d has no partly filled page", id)
	}
	fact := filepath.Join(s.rootDir, "epoch-000", "fact.dat")
	pristine, err := os.ReadFile(fact)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(pristine)
	corrupt[(loc.PageOff+int64(loc.Pages)-1)*int64(w.star.PageSize)] ^= 0xFF
	if err := os.WriteFile(fact, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	err = s.Compact(context.Background())
	var fe *storage.FaultError
	if !errors.As(err, &fe) || fe.Kind != storage.FaultChecksum || fe.Frag != id {
		t.Fatalf("Compact over a corrupt last page: %v, want a checksum fault in fragment %d", err, id)
	}
	if snap, c := s.Current(), s.Counters(); snap.Epoch != 0 || c.Compactions != 0 || c.DeltaRows != loadBatchRows {
		t.Fatalf("after the failed compaction: epoch %d, counters %+v", snap.Epoch, c)
	}
	if _, err := os.Stat(filepath.Join(s.rootDir, "epoch-001")); !os.IsNotExist(err) {
		t.Errorf("the failed compaction left its epoch directory behind (%v)", err)
	}
	elsewhere, err := frag.ParseQuery(w.star, "time::month=2")
	if err != nil {
		t.Fatal(err)
	}
	out, err := run(context.Background(), s, elsewhere)
	if want, _ := engine.ScanGrouped(w.base, elsewhere); err != nil || !reflect.DeepEqual(out.Gr.Result(out.Part), want) {
		t.Errorf("query elsewhere after the failed compaction: %v", err)
	}

	// With the page restored the same store appends and compacts.
	if err := os.WriteFile(fact, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(w.batches[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	w.checkOracle(t, "after the repaired compaction", s, tableOf(w.star, w.base, w.batches[:2]...))
}

// TestFailedAppendLeavesNoHalfBatch: when the journal write of a batch's
// third segment fails (its disk is down), the segments journaled before
// it are rolled back with the seal sequence: nothing of the batch is
// served, and a restart replays exactly the acknowledged batches — not
// the two segments of a batch the caller was told failed.
func TestFailedAppendLeavesNoHalfBatch(t *testing.T) {
	w := newLoadWorld(t)
	dir := t.TempDir()
	s := w.open(t, dir, declustered)
	defer s.Close()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	defer s.End()
	if err := s.Append(w.batches[0]); err != nil {
		t.Fatal(err)
	}

	// The disk of the third fragment batch 1 reaches, provided neither of
	// the first two fragments lives on it.
	be := s.Current().B.Disk
	var order []int64
	buf := make([]int, len(w.star.Dims))
	for _, r := range w.batches[1] {
		for d, leaf := range r.Leaves {
			buf[d] = int(leaf)
		}
		if id := w.spec.IDOf(buf); !slices.Contains(order, id) {
			order = append(order, id)
		}
	}
	down := -1
	for k := 2; k < len(order) && down < 0; k++ {
		d := be.Store.DiskOf(order[k])
		if be.Store.DiskOf(order[0]) != d && be.Store.DiskOf(order[1]) != d {
			down = d
		}
	}
	if down < 0 {
		t.Fatalf("batch 1 reaches fragments %v: no disk fails only a later segment", order)
	}
	journal := filepath.Join(dir, "delta.dat")
	before, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	seq := s.seq

	be.Disks.FailDisk(down)
	err = s.Append(w.batches[1])
	var fe *storage.FaultError
	if !errors.As(err, &fe) || fe.Kind != storage.FaultDiskFailed || fe.File != "delta" || fe.Disk != down {
		t.Fatalf("Append with disk %d down: %v, want a disk-failed fault on the journal", down, err)
	}
	be.Disks.ReviveDisk(down)
	if after, err := os.Stat(journal); err != nil || after.Size() != before.Size() {
		t.Fatalf("journal holds %d bytes after the failed batch, %d before it (%v)", after.Size(), before.Size(), err)
	}
	if c := s.Counters(); s.seq != seq || c.DeltaRows != loadBatchRows || c.Appends != 1 {
		t.Fatalf("after the failed batch: seq %d (was %d), counters %+v", s.seq, seq, c)
	}
	if err := s.Append(w.batches[2]); err != nil {
		t.Fatal(err)
	}
	ackedRows := tableOf(w.star, w.base, w.batches[0], w.batches[2])
	w.checkOracle(t, "after the failed batch", s, ackedRows)

	// "Crash": s is abandoned as it is; a second store replays the journal.
	s2 := w.open(t, dir, declustered)
	defer s2.Close()
	if c := s2.Counters(); c.DeltaRows != 2*loadBatchRows {
		t.Errorf("replay recovered %d delta rows, want the %d acknowledged", c.DeltaRows, 2*loadBatchRows)
	}
	w.checkOracle(t, "after replay", s2, ackedRows)
}

// TestAppendAllocatesForItsRows: a hundred 32-row appends to one
// fragment allocate in proportion to the rows they bring — each batch
// seals one new segment over its own slab of the rows — not to the
// segments already sealed, which are never extended, re-copied or
// re-journaled. The bound is three times the 36 column bytes a row
// carries (3 leaves, 3 measures).
func TestAppendAllocatesForItsRows(t *testing.T) {
	w := newLoadWorld(t)
	s := w.open(t, "", nil)
	defer s.Close()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	defer s.End()
	batch := make([]Row, 32)
	for i := range batch {
		batch[i] = w.batches[0][0]
	}
	const appends = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if c := s.Counters(); c.DeltaSegments != appends || c.DeltaRows != appends*32 {
		t.Fatalf("counters %+v: want one segment per append", c)
	}
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / (appends * 32)
	t.Logf("%.0f bytes allocated per appended row", perRow)
	if perRow > 3*36 {
		t.Errorf("%.0f bytes allocated per appended row, more than three times its 36 column bytes", perRow)
	}
}
