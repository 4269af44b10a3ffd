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
// in-memory layout, handed to EvalMany so one pass over the arrays can
// feed every slot of a shared scan.
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

// Slot is one query's accumulator in a shared multi-query scan: the
// query's grouping shape for the fragment at hand (constant base key,
// per-row GroupBy levels) plus its running FragPartial. Rows counts the
// rows folded in — the slot's logical scan count for the fragment,
// identical to what solo execution would have reported.
type Slot struct {
	Base   uint64
	PerRow []RowLevel
	FP     FragPartial
	Rows   int64
}

// NewSlot shapes a slot for one fragment of one query, mirroring the
// solo executors' per-fragment partial setup: ungrouped queries
// aggregate into FP.Agg only; fragment-aligned grouping tags the partial
// with its constant key; the per-row fallback carries a fragment-local
// group map.
func NewSlot(gr *Grouper, id int64) Slot {
	var s Slot
	if gr == nil {
		return s
	}
	s.Base = gr.FragKey(id)
	if gr.Aligned() {
		s.FP.OneGroup, s.FP.Key = true, s.Base
	} else {
		s.PerRow = gr.PerRow()
		s.FP.Groups = NewGrouped()
	}
	return s
}

// AddCols folds row i of the columnar fragment into the slot.
func (s *Slot) AddCols(cols Columns, i int) {
	u, d, c := cols.Units[i], cols.Dollars[i], cols.Costs[i]
	s.Rows++
	s.FP.Agg.AddRow(u, d, c)
	if s.FP.Groups != nil {
		key := s.Base
		for _, rl := range s.PerRow {
			key += uint64(int64(cols.Dims[rl.Dim][i])/rl.Div) * rl.Weight
		}
		s.FP.Groups.AddRow(key, u, d, c)
	}
}

// AddColsRange folds rows [lo, hi) of the columnar fragment in: with no
// per-row groups — ungrouped, or fragment-aligned with its constant key —
// as one column Sum.
func (s *Slot) AddColsRange(cols Columns, lo, hi int) {
	if s.FP.Groups == nil {
		s.add(cols.Sum(lo, hi))
		return
	}
	for i := lo; i < hi; i++ {
		s.AddCols(cols, i)
	}
}

// AddColsSelected folds the rows sel selects in, as AddColsRange a range.
func (s *Slot) AddColsSelected(cols Columns, sel *bitmap.Bitset) {
	if s.FP.Groups == nil {
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
	s.FP.Agg.Add(a)
}

// AddLeaves folds one decoded tuple in: the row's leaf members per
// dimension plus its measures (the storage executors' row shape).
func (s *Slot) AddLeaves(keys []uint16, units, dollars, cost int64) {
	s.Rows++
	s.FP.Agg.AddRow(units, dollars, cost)
	if s.FP.Groups != nil {
		key := s.Base
		for _, rl := range s.PerRow {
			key += uint64(int64(keys[rl.Dim])/rl.Div) * rl.Weight
		}
		s.FP.Groups.AddRow(key, units, dollars, cost)
	}
}

// EvalMany evaluates K slots against one in-memory fragment in a single
// pass: slot k aggregates the rows selected by masks[k] (nil = every
// one of the n rows). Each slot sees its rows in ascending order —
// exactly the solo executors' iteration order — so results are
// byte-identical to K independent scans. union is caller-owned scratch
// for the masks' OR (it may be nil only when a pass over all n rows is
// unavoidable anyway, i.e. some mask is nil or K == 1).
func EvalMany(slots []*Slot, masks []*bitmap.Bitset, n int, cols Columns, union *bitmap.Bitset) {
	if len(slots) == 1 {
		if masks[0] == nil {
			slots[0].AddColsRange(cols, 0, n)
		} else {
			slots[0].AddColsSelected(cols, masks[0])
		}
		return
	}
	anyNil := false
	for _, m := range masks {
		if m == nil {
			anyNil = true
			break
		}
	}
	if anyNil {
		// Some slot touches every row: sweep them all once and fan each
		// row out to the slots whose mask admits it.
		for i := 0; i < n; i++ {
			for k, m := range masks {
				if m == nil || m.Get(i) {
					slots[k].AddCols(cols, i)
				}
			}
		}
		return
	}
	// Sweep only the union of the masks — one pass feeds every slot.
	union.Reinit(n)
	union.CopyFrom(masks[0])
	for _, m := range masks[1:] {
		union.Or(m)
	}
	for wi, w := range union.Words() {
		for ; w != 0; w &= w - 1 {
			i := wi*64 + bits.TrailingZeros64(w)
			for k, m := range masks {
				if m.Get(i) {
					slots[k].AddCols(cols, i)
				}
			}
		}
	}
}
