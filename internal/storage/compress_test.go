package storage

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/frag"
	"repro/internal/schema"
)

// buildBoth builds an uncompressed and a compressed bitmap file over the
// same store.
func buildBoth(t testing.TB) (*schema.Star, *data.Table, *Store, *BitmapFile, *BitmapFile) {
	t.Helper()
	s := sparseSchema()
	tab := data.MustGenerate(s, 33)
	spec := frag.MustParse(s, "time::month, product::group")
	icfg := make(frag.IndexConfig, len(s.Dims))
	for i := range icfg {
		icfg[i] = frag.IndexSpec{Kind: frag.EncodedIndex}
	}
	dirPlain, dirComp := t.TempDir(), t.TempDir()
	storePlain, err := Build(dirPlain, tab, spec)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildBitmaps(dirPlain, storePlain, icfg)
	if err != nil {
		t.Fatal(err)
	}
	// The compressed file needs its own store dir only for file paths; the
	// fact file is identical.
	storeComp, err := Build(dirComp, tab, spec)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := BuildCompressedBitmaps(dirComp, storeComp, icfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		storePlain.Close()
		plain.Close()
		storeComp.Close()
		comp.Close()
	})
	if !comp.Compressed() || plain.Compressed() {
		t.Fatal("Compressed flags wrong")
	}
	return s, tab, storeComp, plain, comp
}

func TestCompressedBitmapsRoundTrip(t *testing.T) {
	_, _, store, plain, comp := buildBoth(t)
	// Every stored bitmap fragment decodes identically in both files.
	for _, id := range store.Fragments() {
		for _, desc := range comp.Descs() {
			want, _, err := readBitmap(plain, id, desc)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := readBitmap(comp, id, desc)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("fragment %d bitmap %+v differs when compressed", id, desc)
			}
		}
	}
}

func TestCompressedExecutorCorrectAndCheaper(t *testing.T) {
	s, tab, store, plain, comp := buildBoth(t)
	exPlain := newTestExecutor(t, store, plain, 0)
	exComp := newTestExecutor(t, store, comp, 0)
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 60; iter++ {
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
		a, _, err := execute(exPlain, q)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := execute(exComp, q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("iter %d: plain %+v != compressed %+v", iter, a, b)
		}
		want := engine.Scan(tab, q)
		if a.Count != want.Count {
			t.Fatalf("iter %d: wrong result", iter)
		}
	}
	// Storage: compressed total pages never exceed plain.
	if comp.TotalPages() > plain.TotalPages() {
		t.Errorf("compressed bitmaps use %d pages, plain %d", comp.TotalPages(), plain.TotalPages())
	}
}

func TestReadCompressedFragmentMatchesDecompressed(t *testing.T) {
	_, _, store, plain, comp := buildBoth(t)
	for _, id := range store.Fragments() {
		for _, desc := range comp.Descs() {
			want, wantPages, err := readBitmap(comp, id, desc)
			if err != nil {
				t.Fatal(err)
			}
			c, pages, err := comp.ReadCompressedFragment(id, desc)
			if err != nil {
				t.Fatal(err)
			}
			if pages != wantPages {
				t.Fatalf("fragment %d bitmap %+v: %d pages, want %d", id, desc, pages, wantPages)
			}
			if !c.Decompress().Equal(want) {
				t.Fatalf("fragment %d bitmap %+v: raw WAH words decode differently", id, desc)
			}
			if c.OnesCount() != want.OnesCount() {
				t.Fatalf("fragment %d bitmap %+v: OnesCount %d != %d", id, desc, c.OnesCount(), want.OnesCount())
			}
		}
	}
	// The fast-path read is refused on an uncompressed file.
	if _, _, err := plain.ReadCompressedFragment(store.Fragments()[0], comp.Descs()[0]); err == nil {
		t.Fatal("ReadCompressedFragment on an uncompressed file did not fail")
	}
}

// TestCompressedFastPathIOStatsMatch asserts the compressed execution
// path performs exactly the physical fact I/O of the materialised path:
// identical granule reads, pages and rows — only the bitmap
// representation differs.
func TestCompressedFastPathIOStatsMatch(t *testing.T) {
	s, _, store, plain, comp := buildBoth(t)
	exPlain := newTestExecutor(t, store, plain, 0)
	exComp := newTestExecutor(t, store, comp, 0)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
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
		aggP, stP, err := execute(exPlain, q)
		if err != nil {
			t.Fatal(err)
		}
		aggC, stC, err := execute(exComp, q)
		if err != nil {
			t.Fatal(err)
		}
		if aggP != aggC {
			t.Fatalf("iter %d: aggregates diverge", iter)
		}
		if stP.FactIOs != stC.FactIOs || stP.FactPages != stC.FactPages || stP.RowsRead != stC.RowsRead {
			t.Fatalf("iter %d: fact I/O diverges: plain %+v, compressed %+v", iter, stP, stC)
		}
		if stP.BitmapIOs != stC.BitmapIOs {
			t.Fatalf("iter %d: bitmap read count diverges: %d != %d", iter, stP.BitmapIOs, stC.BitmapIOs)
		}
	}
}

// TestCompressedExecutorWorkerInvariance runs the compressed fast path at
// several worker counts; with -race this also exercises the per-worker
// scratch isolation.
func TestCompressedExecutorWorkerInvariance(t *testing.T) {
	s, _, store, _, comp := buildBoth(t)
	q, err := frag.ParseQuery(s, "customer::store=2")
	if err != nil {
		t.Fatal(err)
	}
	seq := newTestExecutor(t, store, comp, 1)
	wantAgg, wantSt, err := execute(seq, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		ex := newTestExecutor(t, store, comp, workers)
		gotAgg, gotSt, err := execute(ex, q)
		if err != nil {
			t.Fatal(err)
		}
		if gotAgg != wantAgg || gotSt != wantSt {
			t.Fatalf("workers=%d: %+v/%+v != %+v/%+v", workers, gotAgg, gotSt, wantAgg, wantSt)
		}
	}
}

// TestCompressedFastPathSimpleIndexes covers the compressed execution
// path through simple (one-bitmap-per-member) indices, which buildBoth's
// all-encoded configuration misses.
func TestCompressedFastPathSimpleIndexes(t *testing.T) {
	s := sparseSchema()
	tab := data.MustGenerate(s, 41)
	spec := frag.MustParse(s, "time::month")
	icfg := make(frag.IndexConfig, len(s.Dims))
	for i := range icfg {
		icfg[i] = frag.IndexSpec{Kind: frag.SimpleIndexes}
	}
	dirPlain, dirComp := t.TempDir(), t.TempDir()
	storePlain, err := Build(dirPlain, tab, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer storePlain.Close()
	plain, err := BuildBitmaps(dirPlain, storePlain, icfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	storeComp, err := Build(dirComp, tab, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer storeComp.Close()
	comp, err := BuildCompressedBitmaps(dirComp, storeComp, icfg)
	if err != nil {
		t.Fatal(err)
	}
	defer comp.Close()
	exPlain := newTestExecutor(t, storePlain, plain, 0)
	exComp := newTestExecutor(t, storeComp, comp, 0)
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 40; iter++ {
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
		aggP, stP, err := execute(exPlain, q)
		if err != nil {
			t.Fatal(err)
		}
		aggC, stC, err := execute(exComp, q)
		if err != nil {
			t.Fatal(err)
		}
		if aggP != aggC {
			t.Fatalf("iter %d: aggregates diverge: %+v != %+v", iter, aggP, aggC)
		}
		if stP.RowsRead != stC.RowsRead || stP.FactPages != stC.FactPages {
			t.Fatalf("iter %d: fact I/O diverges", iter)
		}
		if want := engine.Scan(tab, q); aggP.Count != want.Count {
			t.Fatalf("iter %d: executor disagrees with scan", iter)
		}
	}
}
