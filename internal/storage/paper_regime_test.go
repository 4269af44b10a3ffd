package storage

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
)

// TestPaperRegimePinned pins the paper's regime — every bitmap fragment
// at least a page, so every bitmap fragment is an allocation unit of its
// own — to the numbers the page-padded layout produced before sub-page
// fragments learned to share pages: the bytes of bitmaps.dat, the
// executor's I/O counts and the per-disk access counts of a staggered
// three-disk placement. The sparse schema with 512-byte pages under
// time::month has 16,384-row fragments, i.e. 4-page bitmap fragments.
func TestPaperRegimePinned(t *testing.T) {
	s := sparseSchema()
	s.PageSize = 512
	tab := data.MustGenerate(s, 33)
	spec := frag.MustParse(s, "time::month")
	if bf := spec.BitmapFragmentPages(); bf < 1 {
		t.Fatalf("bitmap fragments of %.2f pages: not the paper's regime", bf)
	}
	icfg := make(frag.IndexConfig, len(s.Dims))
	for i := range icfg {
		icfg[i] = frag.IndexSpec{Kind: frag.EncodedIndex}
	}
	sched := exec.NewScheduler(2)
	defer sched.Close()
	dir := t.TempDir()
	be, err := BuildBackend(dir, tab, spec, icfg, BackendConfig{
		Placement: alloc.Placement{Disks: 3, Scheme: alloc.RoundRobin, Staggered: true},
		Sched:     sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	raw, err := os.ReadFile(filepath.Join(dir, bitmapFileName))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%d:%x", len(raw), sha256.Sum256(raw)), paperRegimeFile; got != want {
		t.Errorf("bitmaps.dat = %s, want %s", got, want)
	}
	if got, want := be.Bitmaps.TotalPages(), int64(len(raw)/s.PageSize); got != want {
		t.Errorf("TotalPages() = %d, file holds %d pages", got, want)
	}

	var sum IOStats
	for _, text := range []string{
		"customer::store=7",
		"product::code=3, customer::retailer=2",
		"time::month=5, product::group=1",
		"time::quarter=1, customer::store=100",
		"time::month=2",
	} {
		q, err := frag.ParseQuery(s, text)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := be.Exec.ExecuteGroupedDeltas(context.Background(), q, kernel.Deltas{})
		if err != nil {
			t.Fatal(err)
		}
		sum.Add(st)
	}
	if sum != paperRegimeIO {
		t.Errorf("IOStats = %+v, want %+v", sum, paperRegimeIO)
	}
	var ios, pages []int64
	for _, d := range be.Disks.Stats() {
		ios = append(ios, d.IOs)
		pages = append(pages, d.Pages)
	}
	if !reflect.DeepEqual(ios, paperRegimeDiskIOs) || !reflect.DeepEqual(pages, paperRegimeDiskPages) {
		t.Errorf("per-disk IOs %v pages %v, want %v and %v", ios, pages, paperRegimeDiskIOs, paperRegimeDiskPages)
	}
}

// Measured at the parent commit (page-padded layout), where this test
// was first run.
var (
	paperRegimeFile      = "276480:4cc8159fc4081b7def232a1e8d81d6e3ebc8e4e8835a443b058ba18ee1285e28"
	paperRegimeIO        = IOStats{FactPages: 5121, FactIOs: 642, BitmapPages: 827, BitmapIOs: 182, RowsRead: 21114}
	paperRegimeDiskIOs   = []int64{245, 257, 322}
	paperRegimeDiskPages = []int64{1742, 1842, 2364}
)
