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

// Columns is a columnar view of one fragment's rows — the engine's
// in-memory layout and a delta segment's, folded by the column kernel.
type Columns struct {
	Dims    [][]int32
	Units   []int64
	Dollars []int64
	Costs   []int64
}

// Sum returns the aggregate of rows [lo, hi), summed in registers over
// columns re-sliced once, so that the loop carries no bounds check.
func (c Columns) Sum(lo, hi int) Aggregate {
	u := c.Units[lo:hi]
	d, k := c.Dollars[lo:hi][:len(u)], c.Costs[lo:hi][:len(u)]
	var su, sd, sk int64
	for i, x := range u {
		su += x
		sd += d[i]
		sk += k[i]
	}
	return Aggregate{Count: int64(len(u)), UnitsSold: su, DollarSales: sd, Cost: sk}
}

// SumSelected returns the aggregate of the rows sel selects, a word at a
// time; bits at or past sel.Len() are ignored, so no row past it is read.
func (c Columns) SumSelected(sel *bitmap.Bitset) Aggregate {
	var a Aggregate
	n := sel.Len()
	for wi, w := range sel.Words() {
		base := wi * 64
		if rest := n - base; rest < 64 {
			w &= 1<<max(rest, 0) - 1
		}
		if w != 0 {
			a.Add(c.sumWord(base, w))
		}
	}
	return a
}

// sumWord returns the aggregate of rows base+b for the set bits b of w:
// a full word is a 64-row Sum, any other contributes its popcount to the
// count and has its set bits visited.
func (c Columns) sumWord(base int, w uint64) Aggregate {
	if w == ^uint64(0) {
		return c.Sum(base, base+64)
	}
	a := Aggregate{Count: int64(bits.OnesCount64(w))}
	for ; w != 0; w &= w - 1 {
		i := base + bits.TrailingZeros64(w)
		a.UnitsSold += c.Units[i]
		a.DollarSales += c.Dollars[i]
		a.Cost += c.Costs[i]
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

// AddCols folds row i of the columnar fragment into the slot.
func (s *Slot) AddCols(cols Columns, i int) {
	u, d, c := cols.Units[i], cols.Dollars[i], cols.Costs[i]
	s.Rows++
	s.Agg.AddRow(u, d, c)
	if s.Groups != nil {
		key := s.Base
		for _, rl := range s.PerRow {
			key += uint64(int64(cols.Dims[rl.Dim][i])/rl.Div) * rl.Weight
		}
		s.Groups.AddRow(key, u, d, c)
	}
}

// AddColsRange folds rows [lo, hi) of the columnar fragment in: with no
// per-row groups — ungrouped, or fragment-aligned with its constant key —
// as one column Sum.
func (s *Slot) AddColsRange(cols Columns, lo, hi int) {
	if s.Groups == nil {
		s.add(cols.Sum(lo, hi))
		return
	}
	for i := lo; i < hi; i++ {
		s.AddCols(cols, i)
	}
}

// AddColsSelected folds the rows sel selects in, as AddColsRange a range.
func (s *Slot) AddColsSelected(cols Columns, sel *bitmap.Bitset) {
	if s.Groups == nil {
		s.add(cols.SumSelected(sel))
		return
	}
	for wi, w := range sel.Words() {
		for ; w != 0; w &= w - 1 {
			s.AddCols(cols, wi*64+bits.TrailingZeros64(w))
		}
	}
}

// add folds an aggregate of rows in (the slot has no per-row groups).
func (s *Slot) add(a Aggregate) {
	s.Rows += a.Count
	s.Agg.Add(a)
}

// EvalMany folds K slots over one in-memory fragment of n rows read
// once: slot k, on its own, aggregates the rows masks[k] selects (nil =
// every row) with the column kernel, as AddColsRange / AddColsSelected
// fold it solo, so results are byte-identical to K independent scans.
// union is unused; it stays in the signature for the benchmark probes
// that compile against it.
func EvalMany(slots []*Slot, masks []*bitmap.Bitset, n int, cols Columns, union *bitmap.Bitset) {
	for k, s := range slots {
		if masks[k] == nil {
			s.AddColsRange(cols, 0, n)
		} else {
			s.AddColsSelected(cols, masks[k])
		}
	}
}
