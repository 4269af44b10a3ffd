package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kernel"
)

// kernelStore is a file-less store of the given shape: the page kernels
// and decodeTuple read nothing but the tuple geometry.
func kernelStore(dims, pageSize int) *Store {
	ts := 2*dims + 12
	return &Store{pagedFile: pagedFile{pageSize: pageSize}, tupleSize: ts, tpp: pageSize / ts}
}

// kernelPerRow buckets every dimension per row with distinct divisors and
// weights, so a kernel reading the wrong key bytes cannot compose the
// reference's group keys.
func kernelPerRow(dims int) []kernel.RowLevel {
	perRow := make([]kernel.RowLevel, dims)
	for d := range perRow {
		perRow[d] = kernel.RowLevel{Dim: d, Div: int64(d + 1), Weight: uint64(1) << (10 * uint(d))}
	}
	return perRow
}

// refFold is the tuple-at-a-time reference the run kernels replaced: the
// fold of decodeTuple over fragment rows [lo, hi) of a buffer whose first
// page is page start of the fragment.
func refFold(s *Store, buf []byte, start, lo, hi int, base uint64, perRow []kernel.RowLevel) partial {
	p := partial{groups: new(kernel.Grouped)}
	keys := make([]uint16, (s.tupleSize-12)/2)
	for r := lo; r < hi; r++ {
		off := (r/s.tpp-start)*s.pageSize + (r%s.tpp)*s.tupleSize
		tp, _ := s.decodeTuple(buf, off, keys)
		p.agg.AddRow(int64(tp.UnitsSold), int64(tp.DollarSales), int64(tp.Cost))
		p.st.RowsRead++
		key := base
		for _, rl := range perRow {
			key += uint64(int64(tp.Keys[rl.Dim])/rl.Div) * rl.Weight
		}
		p.groups.AddRow(key, int64(tp.UnitsSold), int64(tp.DollarSales), int64(tp.Cost))
	}
	return p
}

// checkFold folds rows [lo, hi) through the run kernels, ungrouped and
// per-row grouped, and compares both with the reference.
func checkFold(t testing.TB, s *Store, buf []byte, start, rows, lo, hi int) {
	t.Helper()
	const base = 7 << 50
	perRow := kernelPerRow((s.tupleSize - 12) / 2)
	want := refFold(s, buf, start, lo, hi, base, perRow)

	var sum partial
	s.fold(&rowAcc{p: &sum, rows: rows}, buf, start, lo, hi)
	if sum.agg != want.agg || sum.st != want.st || sum.groups != nil {
		t.Fatalf("sum kernel rows [%d,%d): %+v / %+v, reference %+v / %+v", lo, hi, sum.agg, sum.st, want.agg, want.st)
	}
	keyed := partial{groups: new(kernel.Grouped)}
	s.fold(&rowAcc{p: &keyed, base: base, perRow: perRow, rows: rows}, buf, start, lo, hi)
	if !reflect.DeepEqual(keyed, want) {
		t.Fatalf("keyed kernel rows [%d,%d): %+v, reference %+v", lo, hi, keyed, want)
	}
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

// TestPageKernels: over 1-6 dimensions and both page sizes, sumRun and the
// keyed kernel equal the fold of decodeTuple over the same rows for runs
// that start and end mid-page, cover exactly one page, span the short
// last page or are empty, with extreme measures; and a run reaching past
// the fragment's rows, the page's tuples or the buffer panics instead of
// reading padding.
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
					off := (r/s.tpp)*pageSize + (r%s.tpp)*s.tupleSize + 2*dims
					for m := 0; m < 3; m++ {
						v := extremes[rng.Intn(len(extremes))]
						if rng.Intn(3) == 0 {
							v = int32(rng.Uint32())
						}
						binary.LittleEndian.PutUint32(buf[off+4*m:], uint32(v))
					}
				}
				tpp := s.tpp
				for _, c := range [][2]int{
					{0, 0}, {5, 5}, {rows, rows}, // n = 0
					{0, 1}, {tpp - 1, tpp}, {tpp - 1, tpp + 1}, // one row, page edge
					{0, tpp}, {tpp, 2 * tpp}, // exactly one page
					{1, tpp - 1}, {tpp / 2, tpp + tpp/2}, // mid-page to mid-page
					{2*tpp + 3, rows}, {3 * tpp, rows}, {rows - 1, rows}, // the short last page
					{0, rows}, {1, rows - 1}, // everything
				} {
					checkFold(t, s, buf, 0, rows, c[0], c[1])
				}
				// A granule window that starts at the fragment's page 2.
				checkFold(t, s, buf[2*pageSize:], 2, rows, 2*tpp+1, rows)

				// sumRun on one page, directly: n = 0 anywhere, and the MinInt32 /
				// MaxInt32 sums must not wrap in 32 bits.
				page := make([]byte, pageSize)
				for i := 0; i < tpp; i++ {
					off := i*s.tupleSize + 2*dims
					binary.LittleEndian.PutUint32(page[off:], uint32(1<<31)) // MinInt32
					binary.LittleEndian.PutUint32(page[off+4:], math.MaxInt32)
					binary.LittleEndian.PutUint32(page[off+8:], ^uint32(0)) // -1
				}
				if got := s.sumRun(page, tpp, 0); got != (Aggregate{}) {
					t.Fatalf("empty run = %+v", got)
				}
				n := int64(tpp)
				if got, want := s.sumRun(page, 0, tpp), (Aggregate{Count: n, UnitsSold: n * math.MinInt32, DollarSales: n * math.MaxInt32, Cost: -n}); got != want {
					t.Fatalf("full page = %+v, want %+v", got, want)
				}

				var p partial
				acc := &rowAcc{p: &p, rows: rows}
				mustPanic(t, "run past the fragment's rows", func() { s.fold(acc, buf, 0, rows-1, rows+1) })
				mustPanic(t, "negative row", func() { s.fold(acc, buf, 0, -1, 1) })
				if p != (partial{}) {
					t.Fatalf("refused runs left %+v behind", p)
				}
				mustPanic(t, "run past the buffer", func() { s.fold(acc, buf[:2*pageSize], 0, tpp, 2*tpp+1) })
				mustPanic(t, "run before the buffer", func() { s.fold(acc, buf[pageSize:], 1, 0, 1) })
				mustPanic(t, "sumRun past the page's tuples", func() { s.sumRun(page, 1, tpp) })
				mustPanic(t, "sumRun of negative length", func() { s.sumRun(page, 3, -1) })
				keyedAcc := &rowAcc{p: &partial{groups: new(kernel.Grouped)}, perRow: kernelPerRow(dims), rows: rows}
				mustPanic(t, "keyed run past the page's tuples", func() { s.groupRun(keyedAcc, page, 1, tpp) })
			})
		}
	}
}

// FuzzPageKernel feeds arbitrary page bytes and an arbitrary row range of
// an arbitrary granule window to the run kernels: a range inside the
// window and the fragment's rows must equal the decodeTuple fold, any
// other must panic.
func FuzzPageKernel(f *testing.F) {
	f.Add(uint8(4), false, uint8(3), uint16(500), uint8(1), uint16(204), uint16(409), []byte("seed"))
	f.Add(uint8(1), true, uint8(2), uint16(40), uint8(0), uint16(0), uint16(40), []byte{0xff, 0x7f, 0, 0x80})
	f.Add(uint8(6), true, uint8(5), uint16(101), uint8(2), uint16(50), uint16(101), []byte{1, 2, 3})
	f.Add(uint8(3), false, uint8(1), uint16(10), uint8(0), uint16(5), uint16(5), []byte{})
	f.Add(uint8(2), true, uint8(2), uint16(33), uint8(0), uint16(30), uint16(40), []byte{9}) // past the rows
	f.Fuzz(func(t *testing.T, dims uint8, small bool, pages uint8, rows uint16, start uint8, lo, hi uint16, fill []byte) {
		pageSize := 4096
		if small {
			pageSize = 512
		}
		s := kernelStore(1+int(dims)%6, pageSize)
		npages := 1 + int(pages)%6
		nrows := int(rows) % (npages*s.tpp + 1)
		first := int(start) % npages // the window holds pages [first, npages)
		buf := make([]byte, (npages-first)*pageSize)
		for i := range buf {
			if len(fill) > 0 {
				buf[i] = fill[i%len(fill)] + byte(i/len(fill))
			}
		}
		l, h := int(lo), int(hi)
		if l >= h {
			return // an empty range reads nothing, wherever it lies
		}
		if l < first*s.tpp || h > nrows {
			var p partial
			mustPanic(t, "range outside the window or the rows", func() { s.fold(&rowAcc{p: &p, rows: nrows}, buf, first, l, h) })
			return
		}
		checkFold(t, s, buf, first, nrows, l, h)
	})
}
