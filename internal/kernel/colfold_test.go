package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitmap"
)

// foldRows is the column folds' oracle: AddRow, row by row, over the
// given rows.
func foldRows[K uint16 | int32, M int32 | int64](cols Cols[K, M], rows []int) Aggregate {
	var a Aggregate
	for _, i := range rows {
		a.AddRow(int64(cols.Units[i]), int64(cols.Dollars[i]), int64(cols.Costs[i]))
	}
	return a
}

// testCols returns n rows of measures: small values, values within a few
// hundred of ±2^63 — whose sums wrap, in any order to the same int64 —
// or a mix of both, by regime; int32 measures, as a fact page holds
// them, are those values truncated.
func testCols[K uint16 | int32, M int32 | int64](rng *rand.Rand, n int, regime int) Cols[K, M] {
	val := func() int64 {
		switch regime % 3 {
		case 0:
			return rng.Int63n(1000) - 100
		case 1:
			if rng.Intn(2) == 0 {
				return math.MaxInt64 - rng.Int63n(300)
			}
			return math.MinInt64 + rng.Int63n(300)
		default:
			return rng.Int63() - rng.Int63()
		}
	}
	c := Cols[K, M]{Units: make([]M, n), Dollars: make([]M, n), Costs: make([]M, n)}
	for i := 0; i < n; i++ {
		c.Units[i], c.Dollars[i], c.Costs[i] = M(val()), M(val()), M(val())
	}
	return c
}

// testMask returns an n-bit selection whose words are each full, empty,
// one bit, all bits but one or random — or, by kind, all of one of those,
// or dense: each bit set with probability 15/16.
// With stray set, the last word's bits past n are set too: a fold must
// not read the rows they would name.
func testMask(rng *rand.Rand, n int, kind int, stray bool) *bitmap.Bitset {
	sel := bitmap.New(n)
	for base := 0; base < n; base += 64 {
		k := kind % 7
		if k == 5 {
			k = rng.Intn(5)
		}
		for b := 0; b < 64 && base+b < n; b++ {
			on := false
			switch k {
			case 0:
				on = true
			case 2:
				on = b == 17%min(64, n-base)
			case 3:
				on = b != 40%min(64, n-base)
			case 4:
				on = rng.Intn(2) == 0
			case 6:
				on = rng.Intn(16) != 0
			}
			if on {
				sel.Set(base + b)
			}
		}
	}
	if stray && n%64 != 0 {
		for i := n; i < (n+63)/64*64; i++ {
			sel.Set(i)
		}
	}
	return sel
}

// checkColumnFold checks the kernels against the oracle: Sum over rows
// [lo, hi), and Fold into an ungrouped slot over every row sel selects,
// over rows [lo, hi) and over the rows of [lo, hi) the same selection
// selects from an unaligned offset into a wider bitset — as a fact page's
// rows sit in their fragment's selection — with stray bits past its end.
func checkColumnFold[K uint16 | int32, M int32 | int64](t *testing.T, cols Cols[K, M], sel *bitmap.Bitset, lo, hi int) {
	t.Helper()
	const off = 37
	wide := bitmap.New(off + sel.Len())
	for i := wide.Len(); i%64 != 0; i++ {
		wide.Set(i)
	}
	var span, picked, inSpan []int
	for i := lo; i < hi; i++ {
		span = append(span, i)
	}
	for i := 0; i < sel.Len(); i++ {
		if sel.Get(i) {
			picked = append(picked, i)
			wide.Set(off + i)
			if lo <= i && i < hi {
				inSpan = append(inSpan, i)
			}
		}
	}
	if got, want := cols.Sum(lo, hi), foldRows(cols, span); got != want {
		t.Fatalf("Sum(%d, %d) = %+v, row by row %+v", lo, hi, got, want)
	}
	var s, w Slot
	Fold(&s, cols, 0, sel.Len(), sel, 0)
	if want := foldRows(cols, picked); s.Agg != want || s.Rows != want.Count {
		t.Fatalf("Fold over %d selected rows = %+v / %d, row by row %+v", sel.Len(), s.Agg, s.Rows, want)
	}
	Fold(&s, cols, lo, hi, nil, 0)
	if all := foldRows(cols, append(picked, span...)); s.Agg != all || s.Rows != all.Count {
		t.Fatalf("slot %+v over %d rows, row by row %+v", s.Agg, s.Rows, all)
	}
	Fold(&w, cols, lo, hi, wide, off)
	if want := foldRows(cols, inSpan); w.Agg != want || w.Rows != want.Count {
		t.Fatalf("Fold of rows [%d, %d) at offset %d = %+v / %d, row by row %+v", lo, hi, off, w.Agg, w.Rows, want)
	}
}

// TestColumnFold: the range and selection kernels equal AddRow row by
// row at lengths with n%64 in {0, 1, 63}, on full, empty, partial and
// dense words, stray bits past n, and sums that wrap around ±2^63 — and over a
// fact page's int32/uint16 columns.
func TestColumnFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 191, 640, 641, 703} {
		for regime := 0; regime < 3; regime++ {
			cols, narrow := testCols[int32, int64](rng, n, regime), testCols[uint16, int32](rng, n, regime)
			for kind := 0; kind < 7; kind++ {
				for _, stray := range []bool{false, true} {
					sel := testMask(rng, n, kind, stray)
					checkColumnFold(t, cols, sel, 0, n)
					checkColumnFold(t, narrow, sel, 0, n)
					if n > 2 {
						checkColumnFold(t, cols, sel, 1, n-1)
						checkColumnFold(t, cols, sel, n/2, n/2)
					}
				}
			}
		}
	}
	// A full word of extremes: 64 times MaxInt64 wraps to -64.
	cols := Columns{Units: make([]int64, 64), Dollars: make([]int64, 64), Costs: make([]int64, 64)}
	for i := range cols.Units {
		cols.Units[i], cols.Dollars[i], cols.Costs[i] = math.MaxInt64, math.MinInt64, -1
	}
	sel := bitmap.New(64)
	sel.SetAll()
	var s Slot
	if Fold(&s, cols, 0, 64, sel, 0); s.Agg != (Aggregate{Count: 64, UnitsSold: -64, DollarSales: 0, Cost: -64}) {
		t.Fatalf("full word of extremes: %+v", s.Agg)
	}
}

// FuzzColumnFold: any length, value regime, mask shape (dense ones among
// them) and row range, in
// memory's columns or a fact page's (narrow) — the kernels equal the
// row-by-row oracle.
func FuzzColumnFold(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(0), uint16(0), uint16(64), false)
	f.Add(int64(2), uint16(129), uint8(0x15), uint16(3), uint16(100), false)
	f.Add(int64(3), uint16(63), uint8(0x2d), uint16(0), uint16(63), false)
	f.Add(int64(4), uint16(1), uint8(0x3a), uint16(1), uint16(0), false)
	f.Add(int64(5), uint16(204), uint8(0x16), uint16(5), uint16(200), true)
	f.Add(int64(6), uint16(409), uint8(0x9e), uint16(0), uint16(409), true)
	f.Add(int64(7), uint16(1632), uint8(0x18), uint16(0), uint16(1632), true)
	f.Add(int64(8), uint16(700), uint8(0x9a), uint16(30), uint16(650), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8, lo, hi uint16, narrow bool) {
		rows := int(n % 2048)
		rng := rand.New(rand.NewSource(seed))
		sel := testMask(rng, rows, int(shape>>2)&7, shape&0x80 != 0)
		a, b := int(lo)%(rows+1), int(hi)%(rows+1)
		if narrow {
			checkColumnFold(t, testCols[uint16, int32](rng, rows, int(shape&3)), sel, min(a, b), max(a, b))
		} else {
			checkColumnFold(t, testCols[int32, int64](rng, rows, int(shape&3)), sel, min(a, b), max(a, b))
		}
	})
}

// BenchmarkFoldDensity folds one 1,632-row granule as its eight 204-row
// fact pages — each page's columns a view, its rows at their offset in
// the fragment's selection — into an ungrouped slot, at 5, 50 and 95 %
// of the rows selected at random.
func BenchmarkFoldDensity(b *testing.B) {
	const pages, perPage = 8, 204
	rng := rand.New(rand.NewSource(1))
	cols := testCols[uint16, int32](rng, pages*perPage, 0)
	for _, pct := range []int{5, 50, 95} {
		sel := bitmap.New(pages * perPage)
		for i := 0; i < sel.Len(); i++ {
			if rng.Intn(100) < pct {
				sel.Set(i)
			}
		}
		b.Run(fmt.Sprintf("selected=%d%%", pct), func(b *testing.B) {
			var s Slot
			for i := 0; i < b.N; i++ {
				for p := 0; p < pages; p++ {
					lo, hi := p*perPage, (p+1)*perPage
					page := Cols[uint16, int32]{Units: cols.Units[lo:hi], Dollars: cols.Dollars[lo:hi], Costs: cols.Costs[lo:hi]}
					Fold(&s, page, 0, perPage, sel, lo)
				}
			}
			foldSink = s.Agg
			b.ReportMetric(float64(b.N*pages*perPage)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}

// foldSink keeps BenchmarkFoldDensity's folds from being optimised away.
var foldSink Aggregate
