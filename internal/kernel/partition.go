package kernel

import (
	"slices"

	"repro/internal/data"
	"repro/internal/frag"
)

// Partition is a fact table cut into fragment order, which every builder
// reads front to back: fragment IDs[k], ascending, is rows [Starts[k],
// Starts[k+1]) of Cols, in table order. MDHF puts every row in exactly
// one fragment (Section 4), so a load is one partition.
type Partition struct {
	Cols   Columns
	IDs    []int64
	Starts []int
}

// NewPartition cuts t, its leaves in their domains, into spec's fragment
// order with one stable counting sort: a sequential pass routes every
// row, giving its fragment a slot the first time the id is seen — in a
// table indexed by id when the id space is no larger than t, in a map
// otherwise — and a second scatters each column once.
func NewPartition(spec *frag.Spec, t *data.Table) Partition {
	// Spec.IDOf is a sum over the attributes, so a row's id is a sum of
	// table entries, one per attribute: its leaf member's share of the id.
	var cols [][]int32
	var shares [][]int64
	leaves := make([]int, len(t.Dims))
	for _, a := range spec.Attrs() {
		sh := make([]int64, t.Star.Dims[a.Dim].LeafCard())
		for m := range sh {
			leaves[a.Dim] = m
			sh[m] = spec.IDOf(leaves)
		}
		leaves[a.Dim] = 0
		cols, shares = append(cols, t.Dims[a.Dim]), append(shares, sh)
	}
	pos := make([]int32, t.N()) // row -> slot, then -> place in Cols
	var table []int32           // id -> slot+1
	seen := make(map[int64]int32)
	if spec.NumFragments() <= int64(len(pos)) {
		table = make([]int32, spec.NumFragments())
	}
	var p Partition
	var next []int32 // slot -> rows, then -> its fragment's next place
	for i := range pos {
		var id int64
		for a, sh := range shares {
			id += sh[cols[a][i]]
		}
		var s int32
		if table != nil {
			s = table[id]
		} else {
			s = seen[id]
		}
		if s == 0 {
			p.IDs, next = append(p.IDs, id), append(next, 0)
			if s = int32(len(next)); table != nil {
				table[id] = s
			} else {
				seen[id] = s
			}
		}
		next[s-1]++
		pos[i] = s - 1
	}
	slot := func(id int64) int32 {
		if table != nil {
			return table[id] - 1
		}
		return seen[id] - 1
	}
	slices.Sort(p.IDs)
	p.Starts = make([]int, len(p.IDs)+1)
	for k, id := range p.IDs {
		s := slot(id)
		p.Starts[k+1], next[s] = p.Starts[k]+int(next[s]), int32(p.Starts[k])
	}
	for i, s := range pos {
		pos[i], next[s] = next[s], next[s]+1
	}
	p.Cols = Columns{Dims: make([][]int32, len(t.Dims)),
		Units: scatter(t.UnitsSold, pos), Dollars: scatter(t.DollarSales, pos), Costs: scatter(t.Cost, pos)}
	for d, col := range t.Dims {
		p.Cols.Dims[d] = scatter(col, pos)
	}
	return p
}

// scatter returns col with row i moved to pos[i].
func scatter[T int32 | int64](col []T, pos []int32) []T {
	out := make([]T, len(col))
	for i, x := range col {
		out[pos[i]] = x
	}
	return out
}

// Fragment returns the rows of fragment IDs[k] as columns capped at their
// length: appending to one never writes into the next fragment's rows.
func (p Partition) Fragment(k int) Columns {
	lo, hi := p.Starts[k], p.Starts[k+1]
	c := Columns{Dims: make([][]int32, len(p.Cols.Dims)),
		Units: p.Cols.Units[lo:hi:hi], Dollars: p.Cols.Dollars[lo:hi:hi], Costs: p.Cols.Costs[lo:hi:hi]}
	for d, col := range p.Cols.Dims {
		c.Dims[d] = col[lo:hi:hi]
	}
	return c
}
