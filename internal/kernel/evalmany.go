package kernel

import (
	"math/bits"

	"repro/internal/bitmap"
)

// SharedScanStats records what one query saved (or contributed) by
// riding a shared multi-query scan. The per-query logical I/O counters
// are untouched by sharing — these counters describe only the physical
// effect of coalescing.
type SharedScanStats struct {
	// Batched is the number of queries in the admission batch this query
	// executed with (1 = it ran alone in its window).
	Batched int
	// FragmentsShared counts the query's relevant fragments whose scan
	// task also served at least one other query of the batch.
	FragmentsShared int
	// PhysReadsSaved counts the physical reads (bitmap I/Os and fact
	// granule I/Os) this query would have issued solo but instead
	// consumed from a batch-mate's read.
	PhysReadsSaved int64
}

// Add folds another query's shared-scan counters in (warehouse-wide
// accounting); Batched takes the max rather than summing.
func (s *SharedScanStats) Add(o SharedScanStats) {
	if o.Batched > s.Batched {
		s.Batched = o.Batched
	}
	s.FragmentsShared += o.FragmentsShared
	s.PhysReadsSaved += o.PhysReadsSaved
}

// Cols is a columnar view of rows: one key column per dimension and the
// three measure columns — an engine fragment and a delta segment as
// Columns, a fact page in place as Cols[uint16, int32]. Every row source
// is folded by the one column kernel: Sum, sumWord, AddCols and Fold.
type Cols[K uint16 | int32, M int32 | int64] struct {
	Dims    [][]K
	Units   []M
	Dollars []M
	Costs   []M
}

// Columns is the in-memory instantiation: int32 keys, int64 measures.
type Columns = Cols[int32, int64]

// Sum returns the aggregate of rows [lo, hi), summed in registers over
// columns re-sliced once, so that the loop carries no bounds check.
func (c Cols[K, M]) Sum(lo, hi int) Aggregate {
	u := c.Units[lo:hi]
	d, k := c.Dollars[lo:hi][:len(u)], c.Costs[lo:hi][:len(u)]
	var su, sd, sk int64
	for i, x := range u {
		su += int64(x)
		sd += int64(d[i])
		sk += int64(k[i])
	}
	return Aggregate{Count: int64(len(u)), UnitsSold: su, DollarSales: sd, Cost: sk}
}

// sumWord returns the aggregate of rows base+b for the set bits b of w:
// with all 64 rows inside the fold and more than 40 set, the 64-row Sum
// less the rows of ^w (the same sums, wrapped or not); otherwise its set
// bits visited. Below 40 the Sum costs more than the visits it saves, and
// a 50 % selection would mispredict the choice on every other word.
func (c *Cols[K, M]) sumWord(base int, w uint64, inside bool) Aggregate {
	n := int64(bits.OnesCount64(w))
	if inside && n > 40 {
		s, r := c.Sum(base, base+64), c.sumWord(base, ^w, false)
		return Aggregate{Count: n, UnitsSold: s.UnitsSold - r.UnitsSold, DollarSales: s.DollarSales - r.DollarSales, Cost: s.Cost - r.Cost}
	}
	a := Aggregate{Count: n}
	for ; w != 0; w &= w - 1 {
		i := base + bits.TrailingZeros64(w)
		a.UnitsSold += int64(c.Units[i])
		a.DollarSales += int64(c.Dollars[i])
		a.Cost += int64(c.Costs[i])
	}
	return a
}

// Slot is one query's accumulator for one fragment in a shared
// multi-query scan: the query's grouping shape for the fragment (constant
// base key, per-row GroupBy levels), the fragment's total and, on the
// per-row fallback, where its rows' groups accumulate — the running
// worker's accumulator for the query. Rows counts the rows folded in —
// the slot's logical scan count for the fragment, identical to what the
// query alone would have reported.
type Slot struct {
	Base   uint64
	PerRow []RowLevel
	Agg    Aggregate
	Groups *Grouped // nil unless PerRow is non-empty
	Rows   int64
}

// NewSlot shapes a slot for one fragment of one query: an ungrouped one
// aggregates into Agg only; fragment-aligned grouping keys the whole
// total by Base; the per-row fallback also needs Groups set.
func NewSlot(gr *Grouper, id int64) Slot {
	var s Slot
	if gr != nil {
		s.Base, s.PerRow = gr.FragKey(id), gr.PerRow()
	}
	return s
}

// AddCols folds row i of the columns into the slot.
func AddCols[K uint16 | int32, M int32 | int64](s *Slot, c *Cols[K, M], i int) {
	u, d, k := int64(c.Units[i]), int64(c.Dollars[i]), int64(c.Costs[i])
	s.Rows++
	s.Agg.AddRow(u, d, k)
	if s.Groups != nil {
		key := s.Base
		for _, rl := range s.PerRow {
			key += uint64(int64(c.Dims[rl.Dim][i])/rl.Div) * rl.Weight
		}
		s.Groups.AddRow(key, u, d, k)
	}
}

// addRows folds rows base+b of the columns, for the set bits b of w, into
// the slot one by one: the per-row GROUP BY fallback's word.
func addRows[K uint16 | int32, M int32 | int64](s *Slot, c *Cols[K, M], base int, w uint64) {
	for ; w != 0; w &= w - 1 {
		AddCols(s, c, base+bits.TrailingZeros64(w))
	}
}

// Fold folds rows [lo, hi) of the columns into the slot: every one when
// sel is nil, otherwise those whose bit off+i sel sets, a 64-row word of
// selection at a time; a bit at or past sel.Len() selects nothing. It is
// the fold of every row source — an engine fragment's columns (off 0), a
// fact page's view (off the page's first row in its fragment's
// selection) — and results, Rows included, equal AddCols row by row.
func Fold[K uint16 | int32, M int32 | int64](s *Slot, c Cols[K, M], lo, hi int, sel *bitmap.Bitset, off int) {
	if sel == nil {
		if s.Groups == nil {
			s.add(c.Sum(lo, hi))
			return
		}
		for i := lo; i < hi; i++ {
			AddCols(s, &c, i)
		}
		return
	}
	end := min(hi, sel.Len()-off)
	if lo >= end {
		return
	}
	var a Aggregate // without per-row groups, the words' sums, added once
	ws, sh := sel.Words()[(off+lo)/64:], uint(off+lo)%64
	for base := lo; base < end; base, ws = base+64, ws[1:] {
		w := ws[0] >> sh // bits [off+base, off+base+64) of the selection
		if sh != 0 && len(ws) > 1 {
			w |= ws[1] << (64 - sh)
		}
		inside := end-base >= 64
		if !inside {
			w &= 1<<(end-base) - 1
		}
		switch {
		case w == 0:
		case s.Groups == nil:
			a.Add(c.sumWord(base, w, inside))
		default:
			addRows(s, &c, base, w)
		}
	}
	s.add(a)
}

// add folds an aggregate of rows in (the slot has no per-row groups).
func (s *Slot) add(a Aggregate) {
	s.Rows += a.Count
	s.Agg.Add(a)
}

// EvalMany folds K slots over one in-memory fragment of n rows read
// once: slot k, on its own, aggregates the rows masks[k] selects (nil =
// every row) with Fold, so results are byte-identical to K independent
// scans. union is unused; it stays in the signature for the benchmark
// probes that compile against it.
func EvalMany(slots []*Slot, masks []*bitmap.Bitset, n int, cols Columns, union *bitmap.Bitset) {
	for k, s := range slots {
		Fold(s, cols, 0, n, masks[k], 0)
	}
}
