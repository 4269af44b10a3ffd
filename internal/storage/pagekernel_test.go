package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/kernel"
)

// kernelStore is a file-less store of the given shape: the fold, the page
// view and decodeTuple read nothing but the page geometry.
func kernelStore(dims, pageSize int) *Store {
	return &Store{pagedFile: pagedFile{pageSize: pageSize}, tpp: pageSize / (2*dims + 12)}
}

// kernelPerRow buckets every dimension per row with distinct divisors and
// weights, so a fold reading the wrong key column cannot compose the
// reference's group keys.
func kernelPerRow(dims int) []kernel.RowLevel {
	perRow := make([]kernel.RowLevel, dims)
	for d := range perRow {
		perRow[d] = kernel.RowLevel{Dim: d, Div: int64(d + 1), Weight: uint64(1) << (10 * uint(d))}
	}
	return perRow
}

// putMeasure writes measure m of fragment row r into buf, whose first page
// is the fragment's page 0, at the explicit offset decodeTuple reads.
func putMeasure(s *Store, buf []byte, r, m int, v int32) {
	binary.LittleEndian.PutUint32(buf[r/s.tpp*s.pageSize+4*(m*s.tpp+r%s.tpp):], uint32(v))
}

// refFold is the fold's reference: decodeTuple, row by row, over the
// fragment rows [lo, hi) that sel selects (nil: all) of a buffer whose
// first page is page start of the fragment, into a per-row grouped slot.
func refFold(s *Store, buf []byte, start, lo, hi int, sel *bitmap.Bitset, base uint64, perRow []kernel.RowLevel) kernel.Slot {
	sl := kernel.Slot{Base: base, PerRow: perRow, Groups: new(kernel.Grouped)}
	keys := make([]uint16, len(perRow))
	for r := lo; r < hi; r++ {
		if sel != nil && !sel.Get(r) {
			continue
		}
		tp := s.decodeTuple(buf[(r/s.tpp-start)*s.pageSize:], r%s.tpp, keys)
		u, d, c := int64(tp.UnitsSold), int64(tp.DollarSales), int64(tp.Cost)
		sl.Agg.AddRow(u, d, c)
		sl.Rows++
		key := base
		for _, rl := range perRow {
			key += uint64(int64(tp.Keys[rl.Dim])/rl.Div) * rl.Weight
		}
		sl.Groups.AddRow(key, u, d, c)
	}
	return sl
}

// checkFold folds rows [lo, hi) through the column kernel, ungrouped and
// per-row grouped, and compares both with the reference.
func checkFold(t testing.TB, s *Store, dims, start, rows, lo, hi int, buf []byte, sel *bitmap.Bitset) {
	t.Helper()
	const base = 7 << 50
	perRow := kernelPerRow(dims)
	want := refFold(s, buf, start, lo, hi, sel, base, perRow)
	view := make([][]uint16, dims)

	var sum kernel.Slot
	s.fold(&sum, view, buf, start, rows, lo, hi, sel)
	if sum.Agg != want.Agg || sum.Rows != want.Rows || sum.Groups != nil {
		t.Fatalf("ungrouped fold of rows [%d,%d): %+v / %d, reference %+v / %d", lo, hi, sum.Agg, sum.Rows, want.Agg, want.Rows)
	}
	keyed := kernel.Slot{Base: base, PerRow: perRow, Groups: new(kernel.Grouped)}
	s.fold(&keyed, view, buf, start, rows, lo, hi, sel)
	if !reflect.DeepEqual(keyed, want) {
		t.Fatalf("grouped fold of rows [%d,%d): %+v, reference %+v", lo, hi, keyed, want)
	}
}

// pageSel returns a selection of the fragment's rows, every third bit set
// and then some at random — or, dense, all but one in sixteen at random —
// with stray bits past its end.
func pageSel(rng *rand.Rand, rows int, dense bool) *bitmap.Bitset {
	sel := bitmap.New(rows)
	for r := 0; r < rows; r++ {
		if dense && rng.Intn(16) != 0 || !dense && (r%3 == 0 || rng.Intn(4) == 0) {
			sel.Set(r)
		}
	}
	for r := rows; r%64 != 0; r++ {
		sel.Set(r)
	}
	return sel
}

// mustPanic runs fn and fails unless it panics.
func mustPanic(t testing.TB, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	fn()
}

// TestPageKernels: over 1-6 dimensions and both page sizes, the column
// fold of a page's view equals decodeTuple's row by row, with or without
// a selection, for runs that start and end mid-page, cover exactly one
// page, span the short last page or are empty, with extreme measures;
// and a run reaching past the fragment's rows, the page's tuples or the
// buffer panics instead of reading padding.
func TestPageKernels(t *testing.T) {
	extremes := []int32{0, -1, 1, math.MinInt32, math.MaxInt32, -123456789}
	for dims := 1; dims <= 6; dims++ {
		for _, pageSize := range []int{512, 4096} {
			t.Run(fmt.Sprintf("dims=%d/page=%d", dims, pageSize), func(t *testing.T) {
				s := kernelStore(dims, pageSize)
				const pages = 4
				rows := 3*s.tpp + s.tpp/3 + 1 // a short last page
				rng := rand.New(rand.NewSource(int64(dims*pageSize + 1)))
				buf := make([]byte, pages*pageSize)
				rng.Read(buf) // padding is garbage: reading it cannot go unnoticed
				for r := 0; r < rows; r++ {
					for m := 0; m < 3; m++ {
						v := extremes[rng.Intn(len(extremes))]
						if rng.Intn(3) == 0 {
							v = int32(rng.Uint32())
						}
						putMeasure(s, buf, r, m, v)
					}
				}
				tpp := s.tpp
				for _, sel := range []*bitmap.Bitset{nil, pageSel(rng, rows, false), pageSel(rng, rows, true)} {
					for _, c := range [][2]int{
						{0, 0}, {5, 5}, {rows, rows}, // n = 0
						{0, 1}, {tpp - 1, tpp}, {tpp - 1, tpp + 1}, // one row, page edge
						{0, tpp}, {tpp, 2 * tpp}, // exactly one page
						{1, tpp - 1}, {tpp / 2, tpp + tpp/2}, // mid-page to mid-page
						{2*tpp + 3, rows}, {3 * tpp, rows}, {rows - 1, rows}, // the short last page
						{0, rows}, {1, rows - 1}, // everything
					} {
						checkFold(t, s, dims, 0, rows, c[0], c[1], buf, sel)
					}
					// A granule window that starts at the fragment's page 2.
					checkFold(t, s, dims, 2, rows, 2*tpp+1, rows, buf[2*pageSize:], sel)
				}

				page, view := make([]byte, pageSize), make([][]uint16, dims)
				var sl kernel.Slot
				mustPanic(t, "run past the fragment's rows", func() { s.fold(&sl, view, buf, 0, rows, rows-1, rows+1, nil) })
				mustPanic(t, "negative row", func() { s.fold(&sl, view, buf, 0, rows, -1, 1, nil) })
				if !reflect.DeepEqual(sl, kernel.Slot{}) {
					t.Fatalf("refused runs left %+v behind", sl)
				}
				mustPanic(t, "run past the buffer", func() { s.fold(&sl, view, buf[:2*pageSize], 0, rows, tpp, 2*tpp+1, nil) })
				mustPanic(t, "run before the buffer", func() { s.fold(&sl, view, buf[pageSize:], 1, rows, 0, 1, nil) })
				mustPanic(t, "view of a short page", func() { s.pageCols(page[:pageSize-1], view) })
				mustPanic(t, "fold past the page's tuples", func() { kernel.Fold(&sl, s.pageCols(page, view), 1, tpp+1, nil, 0) })
				keyed := kernel.Slot{PerRow: kernelPerRow(dims), Groups: new(kernel.Grouped)}
				mustPanic(t, "keyed fold past the page's tuples", func() { kernel.Fold(&keyed, s.pageCols(page, view), 1, tpp+1, nil, 0) })
			})
		}
	}
}

// TestPageFoldAllocatesNothing: folding a granule's pages — every row or
// a selection, ungrouped or per-row grouped into warm groups — allocates
// nothing; the view's key columns are the caller's scratch.
func TestPageFoldAllocatesNothing(t *testing.T) {
	s, rng := kernelStore(4, 4096), rand.New(rand.NewSource(3))
	rows, buf, view := 8*s.tpp-5, make([]byte, 8*4096), make([][]uint16, 4)
	rng.Read(buf)
	sel, dense := pageSel(rng, rows, false), pageSel(rng, rows, true)
	sum, keyed := kernel.Slot{}, kernel.Slot{PerRow: kernelPerRow(4), Groups: new(kernel.Grouped)}
	if allocs := testing.AllocsPerRun(20, func() {
		for _, sl := range []*kernel.Slot{&sum, &keyed} {
			s.fold(sl, view, buf, 0, rows, 0, rows, nil)
			s.fold(sl, view, buf, 0, rows, 0, rows, sel)
			s.fold(sl, view, buf, 0, rows, 0, rows, dense)
		}
	}); allocs != 0 {
		t.Fatalf("a granule fold allocates %.1f times", allocs)
	}
}

// FuzzPageKernel feeds arbitrary page bytes, an arbitrary selection —
// none, sparse or dense — and an arbitrary row range of an arbitrary
// granule window to the fold: a range inside the window and the
// fragment's rows must equal the decodeTuple fold, any other must panic.
func FuzzPageKernel(f *testing.F) {
	f.Add(uint8(4), false, uint8(3), uint16(500), uint8(1), uint16(204), uint16(409), []byte("seed"))
	f.Add(uint8(1), true, uint8(2), uint16(40), uint8(0), uint16(0), uint16(40), []byte{0xff, 0x7f, 0, 0x80})
	f.Add(uint8(6), true, uint8(5), uint16(101), uint8(2), uint16(50), uint16(101), []byte{1, 2, 3})
	f.Add(uint8(3), false, uint8(1), uint16(10), uint8(0), uint16(5), uint16(5), []byte{})
	f.Add(uint8(2), true, uint8(2), uint16(33), uint8(0), uint16(30), uint16(40), []byte{9})   // past the rows
	f.Add(uint8(3), false, uint8(4), uint16(700), uint8(0), uint16(3), uint16(690), []byte{7}) // dense
	f.Fuzz(func(t *testing.T, dims uint8, small bool, pages uint8, rows uint16, start uint8, lo, hi uint16, fill []byte) {
		pageSize := 4096
		if small {
			pageSize = 512
		}
		nd := 1 + int(dims)%6
		s := kernelStore(nd, pageSize)
		npages := 1 + int(pages)%6
		nrows := int(rows) % (npages*s.tpp + 1)
		first := int(start) % npages // the window holds pages [first, npages)
		buf := make([]byte, (npages-first)*pageSize)
		for i := range buf {
			if len(fill) > 0 {
				buf[i] = fill[i%len(fill)] + byte(i/len(fill))
			}
		}
		var sel *bitmap.Bitset
		if len(fill)%2 == 1 {
			sel = pageSel(rand.New(rand.NewSource(int64(fill[0]))), nrows, fill[0]%4 == 3)
		}
		l, h := int(lo), int(hi)
		if l >= h {
			return // an empty range reads nothing, wherever it lies
		}
		if l < first*s.tpp || h > nrows {
			var sl kernel.Slot
			mustPanic(t, "range outside the window or the rows", func() { s.fold(&sl, make([][]uint16, nd), buf, first, nrows, l, h, sel) })
			return
		}
		checkFold(t, s, nd, first, nrows, l, h, buf, sel)
	})
}
