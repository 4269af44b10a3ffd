package kernel

import (
	"fmt"

	"repro/internal/frag"
	"repro/internal/schema"
)

// RowLevel is one GroupBy level's digit of the composed group key: the
// level's member times Weight, so that a key's digit is
// (key / Weight) % radix. A level that needs per-row bucketing (PerRow)
// finds the group member of a fact row as its leaf member of dimension
// Dim divided by Div.
type RowLevel struct {
	Dim    int
	Div    int64
	Weight uint64
	radix  int64 // the level's cardinality
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
	// levels holds the n GroupBy levels in declared order, then the
	// per-row ones again as PerRow returns them. In the declared part a
	// fragment-aligned level's Div divides the allocation-order fragment
	// id — its member is (id / Div) % radix, the mixed-radix decomposition
	// of the id and ancestor arithmetic in the uniform hierarchy in one —
	// and a per-row level's Div is 0.
	levels []RowLevel
	n      int
}

// NewGrouper builds the group-key computer for a query's GroupBy under a
// fragmentation (spec may be nil — e.g. for the full-scan oracle — in
// which case every level buckets per row). It returns (nil, nil) when the
// query has no GroupBy. It allocates twice: the Grouper and its levels.
func NewGrouper(star *schema.Star, spec *frag.Spec, groupBy []frag.LevelRef) (*Grouper, error) {
	if len(groupBy) == 0 {
		return nil, nil
	}
	// The range and group-space checks intentionally repeat
	// frag.Query.Validate's: callers do Validate first, but this package
	// must stay memory-safe (and overflow-free) on its own inputs.
	space := int64(1)
	for _, ref := range groupBy {
		if ref.Dim < 0 || ref.Dim >= len(star.Dims) {
			return nil, fmt.Errorf("kernel: GroupBy dimension %d out of range", ref.Dim)
		}
		d := &star.Dims[ref.Dim]
		if ref.Level < 0 || ref.Level >= d.Depth() {
			return nil, fmt.Errorf("kernel: GroupBy level %d out of range for %s", ref.Level, d.Name)
		}
		card := int64(d.Levels[ref.Level].Card)
		if space > (1<<62)/card {
			return nil, fmt.Errorf("kernel: GroupBy space exceeds 2^62 groups")
		}
		space *= card
	}
	// attrOf is the fragmentation attribute a level is aligned with, or -1.
	attrOf := func(ref frag.LevelRef) int {
		if spec == nil {
			return -1
		}
		if ai := spec.AttrOfDim(ref.Dim); ai != -1 && ref.Level <= spec.Attrs()[ai].Level {
			return ai
		}
		return -1
	}
	n := len(groupBy)
	for _, ref := range groupBy {
		if attrOf(ref) == -1 {
			n++
		}
	}
	g := &Grouper{levels: make([]RowLevel, n), n: len(groupBy)}
	// Mixed-radix place values, last level least significant: a level's
	// weight is the product of the radices declared after it.
	w, next := uint64(space), g.n
	for i, ref := range groupBy {
		d := &star.Dims[ref.Dim]
		lv := RowLevel{Dim: ref.Dim, radix: int64(d.Levels[ref.Level].Card)}
		w /= uint64(lv.radix)
		lv.Weight = w
		if ai := attrOf(ref); ai != -1 {
			// The fragmentation coordinate of attribute ai is
			// (id / idDiv) % Card(fl), idDiv the product of the radices of
			// the attributes allocated after ai (they vary faster in the
			// id); the level's member is that coordinate / FanOutBetween.
			fl := spec.Attrs()[ai].Level
			lv.Div = int64(d.FanOutBetween(ref.Level, fl))
			for j := ai + 1; j < spec.Dimensionality(); j++ {
				a := spec.Attrs()[j]
				lv.Div *= int64(spec.Star().Dims[a.Dim].Levels[a.Level].Card)
			}
		} else {
			g.levels[next] = lv
			g.levels[next].Div = int64(d.FanOutBetween(ref.Level, d.Leaf()))
			next++
		}
		g.levels[i] = lv
	}
	return g, nil
}

// PerRow returns the levels requiring per-row bucketing (empty on the
// aligned fast path, where every GroupBy level is at or above the
// fragmentation level of its dimension and grouping adds no per-row
// work). Backends compose a row's key as FragKey(id) + Σ (leaf/Div)*Weight
// over these levels.
func (g *Grouper) PerRow() []RowLevel { return g.levels[g.n:] }

// FragKey returns the fragment-constant part of the group key for the
// fragment with the given allocation-order id — the whole key on the
// aligned fast path. It is pure integer arithmetic on the id: no
// allocation, no per-row work.
func (g *Grouper) FragKey(id int64) uint64 {
	var key uint64
	for _, lv := range g.levels[:g.n] {
		if lv.Div != 0 {
			key += uint64((id/lv.Div)%lv.radix) * lv.Weight
		}
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
	nl := g.n
	rows, members := make([]Row, len(run)), make([]int, len(run)*nl)
	for i, gr := range run {
		m := members[i*nl : (i+1)*nl : (i+1)*nl]
		for l, lv := range g.levels[:nl] {
			m[l] = int((gr.Key / lv.Weight) % uint64(lv.radix))
		}
		rows[i] = Row{Members: m, Agg: gr.Agg}
	}
	return rows
}
