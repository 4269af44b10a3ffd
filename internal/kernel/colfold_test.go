package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitmap"
)

// foldRows is the column folds' oracle: AddRow, row by row, over the
// given rows.
func foldRows(cols Columns, rows []int) Aggregate {
	var a Aggregate
	for _, i := range rows {
		a.AddRow(cols.Units[i], cols.Dollars[i], cols.Costs[i])
	}
	return a
}

// testCols returns n rows of measures: small values, values within a few
// hundred of ±2^63 — whose sums wrap, in any order to the same int64 —
// or a mix of both, by regime.
func testCols(rng *rand.Rand, n int, regime int) Columns {
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
	c := Columns{Units: make([]int64, n), Dollars: make([]int64, n), Costs: make([]int64, n)}
	for i := 0; i < n; i++ {
		c.Units[i], c.Dollars[i], c.Costs[i] = val(), val(), val()
	}
	return c
}

// testMask returns an n-bit selection whose words are each full, empty,
// one bit, all bits but one or random — or, by kind, all of one of those.
// With stray set, the last word's bits past n are set too: a fold must
// not read the rows they would name.
func testMask(rng *rand.Rand, n int, kind int, stray bool) *bitmap.Bitset {
	sel := bitmap.New(n)
	for base := 0; base < n; base += 64 {
		k := kind % 6
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

// checkColumnFold checks both kernels, and the ungrouped slot folds on
// them, against the oracle: rows [lo, hi) and the rows sel selects.
func checkColumnFold(t *testing.T, cols Columns, sel *bitmap.Bitset, lo, hi int) {
	t.Helper()
	var span, picked []int
	for i := lo; i < hi; i++ {
		span = append(span, i)
	}
	for i := 0; i < sel.Len(); i++ {
		if sel.Get(i) {
			picked = append(picked, i)
		}
	}
	if got, want := cols.Sum(lo, hi), foldRows(cols, span); got != want {
		t.Fatalf("Sum(%d, %d) = %+v, row by row %+v", lo, hi, got, want)
	}
	want := foldRows(cols, picked)
	if got := cols.SumSelected(sel); got != want {
		t.Fatalf("SumSelected over %d rows = %+v, row by row %+v", sel.Len(), got, want)
	}
	var s Slot
	s.AddColsSelected(cols, sel)
	s.AddColsRange(cols, lo, hi)
	if all := foldRows(cols, append(picked, span...)); s.FP.Agg != all || s.Rows != all.Count {
		t.Fatalf("slot %+v over %d rows, row by row %+v", s.FP.Agg, s.Rows, all)
	}
}

// TestColumnFold: the range and selection kernels equal AddRow row by
// row at lengths with n%64 in {0, 1, 63}, on full, empty and partial
// words, stray bits past n, and sums that wrap around ±2^63.
func TestColumnFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 191, 640, 641, 703} {
		for regime := 0; regime < 3; regime++ {
			cols := testCols(rng, n, regime)
			for kind := 0; kind < 6; kind++ {
				for _, stray := range []bool{false, true} {
					sel := testMask(rng, n, kind, stray)
					checkColumnFold(t, cols, sel, 0, n)
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
	if got, want := cols.SumSelected(sel), (Aggregate{Count: 64, UnitsSold: -64, DollarSales: 0, Cost: -64}); got != want {
		t.Fatalf("full word of extremes: %+v, want %+v", got, want)
	}
}

// FuzzColumnFold: any length, value regime, mask shape and row range —
// both kernels equal the row-by-row oracle.
func FuzzColumnFold(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(0), uint16(0), uint16(64))
	f.Add(int64(2), uint16(129), uint8(0x15), uint16(3), uint16(100))
	f.Add(int64(3), uint16(63), uint8(0x2d), uint16(0), uint16(63))
	f.Add(int64(4), uint16(1), uint8(0x3a), uint16(1), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8, lo, hi uint16) {
		rows := int(n % 2048)
		rng := rand.New(rand.NewSource(seed))
		cols := testCols(rng, rows, int(shape&3))
		sel := testMask(rng, rows, int(shape>>2)&7, shape&0x80 != 0)
		a, b := int(lo)%(rows+1), int(hi)%(rows+1)
		checkColumnFold(t, cols, sel, min(a, b), max(a, b))
	})
}
