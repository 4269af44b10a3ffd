package kernel

import (
	"fmt"

	"repro/internal/frag"
	"repro/internal/schema"
)

// RowLevel is one GroupBy level that needs per-row bucketing: the group
// member of a fact row is its leaf member of dimension Dim divided by
// Div, and it contributes member*Weight to the row's composed group key.
type RowLevel struct {
	Dim    int
	Div    int64
	Weight uint64
}

// alignedLevel is one GroupBy level at or above its dimension's
// fragmentation level: within a fragment every row shares the same group
// member, computed once per fragment from the fragment id alone.
type alignedLevel struct {
	// coord member of the fragmentation attribute = (id / idDiv) % idMod
	// (the mixed-radix decomposition of the allocation-order fragment id).
	idDiv, idMod int64
	// group member = coord member / div (ancestor arithmetic in the
	// uniform hierarchy).
	div    int64
	weight uint64
}

// Grouper maps fact rows to composed group keys for one
// (fragmentation, GROUP BY) pair. Keys are mixed-radix: the first
// declared GroupBy level is the most significant digit, so ascending key
// order is lexicographic order of the member tuples — the deterministic
// output order every backend produces.
//
// Exploiting MDHF (Section 4.1's hierarchy alignment): a GroupBy level at
// or above the fragmentation level of its dimension is constant within
// every fragment, so its key digit is computed once per fragment from the
// fragment coordinates with zero per-row work. Only levels below the
// fragmentation level — or on non-fragmentation dimensions — fall back to
// per-row bucketing (PerRow).
type Grouper struct {
	radices []int64
	weights []uint64
	aligned []alignedLevel
	perRow  []RowLevel
}

// NewGrouper builds the group-key computer for a query's GroupBy under a
// fragmentation (spec may be nil — e.g. for the full-scan oracle — in
// which case every level buckets per row). It returns (nil, nil) when the
// query has no GroupBy.
func NewGrouper(star *schema.Star, spec *frag.Spec, groupBy []frag.LevelRef) (*Grouper, error) {
	if len(groupBy) == 0 {
		return nil, nil
	}
	g := &Grouper{
		radices: make([]int64, len(groupBy)),
		weights: make([]uint64, len(groupBy)),
	}
	// The range and group-space checks intentionally repeat
	// frag.Query.Validate's: callers do Validate first, but this package
	// must stay memory-safe (and overflow-free) on its own inputs.
	space := int64(1)
	for i, ref := range groupBy {
		if ref.Dim < 0 || ref.Dim >= len(star.Dims) {
			return nil, fmt.Errorf("kernel: GroupBy dimension %d out of range", ref.Dim)
		}
		d := &star.Dims[ref.Dim]
		if ref.Level < 0 || ref.Level >= d.Depth() {
			return nil, fmt.Errorf("kernel: GroupBy level %d out of range for %s", ref.Level, d.Name)
		}
		card := int64(d.Levels[ref.Level].Card)
		g.radices[i] = card
		if space > (1<<62)/card {
			return nil, fmt.Errorf("kernel: GroupBy space exceeds 2^62 groups")
		}
		space *= card
	}
	// Mixed-radix place values: last level least significant.
	w := uint64(1)
	for i := len(groupBy) - 1; i >= 0; i-- {
		g.weights[i] = w
		w *= uint64(g.radices[i])
	}
	for i, ref := range groupBy {
		d := &star.Dims[ref.Dim]
		ai := -1
		if spec != nil {
			ai = spec.AttrOfDim(ref.Dim)
		}
		if ai != -1 && ref.Level <= spec.Attrs()[ai].Level {
			fl := spec.Attrs()[ai].Level
			// idDiv = product of the radices of the attributes allocated
			// after ai (they vary faster in the allocation-order id).
			idDiv := int64(1)
			for j := ai + 1; j < spec.Dimensionality(); j++ {
				a := spec.Attrs()[j]
				idDiv *= int64(spec.Star().Dims[a.Dim].Levels[a.Level].Card)
			}
			g.aligned = append(g.aligned, alignedLevel{
				idDiv:  idDiv,
				idMod:  int64(d.Levels[fl].Card),
				div:    int64(d.FanOutBetween(ref.Level, fl)),
				weight: g.weights[i],
			})
			continue
		}
		g.perRow = append(g.perRow, RowLevel{
			Dim:    ref.Dim,
			Div:    int64(d.FanOutBetween(ref.Level, d.Leaf())),
			Weight: g.weights[i],
		})
	}
	return g, nil
}

// Aligned reports the fragment-aligned fast path: every GroupBy level is
// at or above the fragmentation level of its dimension, so the group key
// is constant per fragment and grouping adds no per-row work.
func (g *Grouper) Aligned() bool { return len(g.perRow) == 0 }

// PerRow returns the levels requiring per-row bucketing (empty on the
// aligned fast path). Backends compose a row's key as
// FragKey(id) + Σ (leaf/Div)*Weight over these levels.
func (g *Grouper) PerRow() []RowLevel { return g.perRow }

// FragKey returns the fragment-constant part of the group key for the
// fragment with the given allocation-order id — the whole key on the
// aligned fast path. It is pure integer arithmetic on the id: no
// allocation, no per-row work.
func (g *Grouper) FragKey(id int64) uint64 {
	var key uint64
	for _, al := range g.aligned {
		m := (id / al.idDiv) % al.idMod
		key += uint64(m/al.div) * al.weight
	}
	return key
}

// Result flattens a merged partial into the query result: the grand
// total plus, for a grouped query (g non-nil), its rows in Rows order.
func (g *Grouper) Result(p FragPartial) Result {
	res := Result{Aggregate: p.Agg}
	if g != nil {
		res.Groups = g.Rows(p.Groups)
	}
	return res
}

// Rows flattens a run into the deterministic output order: ascending in
// the composed key, i.e. lexicographic in the GroupBy member tuple — the
// run's own order. Every backend produces byte-identical rows for the
// same query, in two allocations: the rows and one array holding every
// row's Members, each capped at its own.
func (g *Grouper) Rows(run []Group) []Row {
	if len(run) == 0 {
		return nil
	}
	nl := len(g.weights)
	rows, members := make([]Row, len(run)), make([]int, len(run)*nl)
	for i, gr := range run {
		m := members[i*nl : (i+1)*nl : (i+1)*nl]
		for l, w := range g.weights {
			m[l] = int((gr.Key / w) % uint64(g.radices[l]))
		}
		rows[i] = Row{Members: m, Agg: gr.Agg}
	}
	return rows
}
