// Package engine is a real (non-simulated) parallel star query executor
// over MDHF-fragmented fact data: it partitions a generated fact table into
// fragments, builds per-fragment bitmap indices, and executes star queries
// fragment-wise on a scheduler's workers standing in for the Shared Disk
// processing nodes. It validates that the fragment-confinement and
// bitmap-elimination logic of internal/frag produces correct query
// answers, complementing the timing-oriented SIMPAD simulator.
//
// Everything around a fragment — validation, fragment enumeration, the
// delta fold, the merge of the workers' partials — is internal/kernel's
// drivers; the engine supplies the fragment folds (selectInto + a column
// Sum solo, selectInto + kernel.EvalMany shared), so its results are
// structurally identical to the on-disk executor's. Index fragments kept
// as Bitsets or as WAH words (BuildCompressed) differ only in storage:
// either way a selection lands in a worker's scratch Bitset.
package engine

import (
	"context"
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/schema"
)

// Aggregate is a star query result: COUNT plus the three APB-1 measure
// sums — the shared kernel aggregate.
type Aggregate = kernel.Aggregate

// Stats reports the work a query execution performed — used to assert the
// paper's confinement claims, not just result correctness.
type Stats = kernel.Stats

// fragment holds one fact fragment's rows (column-oriented) and its bitmap
// index fragments.
type fragment struct {
	rows int
	cols kernel.Columns

	// encoded[d] is the encoded bitmap join index fragment for dimension d
	// (nil for simple-indexed dimensions).
	encoded []encodedIndex
	// simple[d][l] is the simple bitmap index fragment on level l of
	// dimension d (nil where not materialised).
	simple [][]simpleIndex
}

// encodedIndex and simpleIndex are what the folds ask of an index
// fragment: a selection written into worker scratch. bitmap.EncodedIndex
// and bitmap.SimpleIndex answer from stored Bitsets, their Compressed
// twins by decoding stored WAH words.
type encodedIndex interface {
	SelectPartialInto(dst *bitmap.Bitset, skipLevel, level, m int) int
}

type simpleIndex interface {
	SelectInto(dst *bitmap.Bitset, m int)
}

// Engine executes star queries over a fragmented fact table.
type Engine struct {
	star *schema.Star
	spec *frag.Spec
	icfg frag.IndexConfig

	frags map[int64]*fragment
	// layouts[d] is the encoding layout of dimension d (nil for simple).
	layouts []*bitmap.Layout
	// compressed stores the per-fragment indices as WAH words instead of
	// Bitsets; read where an index is built and by Compressed, never by a
	// fold.
	compressed bool

	// The worker scratch of the solo and the shared fold, borrowed by
	// every call's fragment tasks; Compact hands the lists on to the next
	// epoch's engine, so they live as long as the store.
	solo   *exec.Scratch[*scratch]
	shared *exec.Scratch[*sharedScratch]
}

// Compressed reports whether the engine stores its per-fragment bitmap
// indices WAH-compressed.
func (e *Engine) Compressed() bool { return e.compressed }

// Build partitions the table per the fragmentation spec and constructs the
// per-fragment bitmap indices that survive bitmap elimination
// (Section 4.2): for fragmentation dimensions only levels strictly below
// the fragmentation attribute are indexed.
func Build(t *data.Table, spec *frag.Spec, icfg frag.IndexConfig) (*Engine, error) {
	return build(t, spec, icfg, false)
}

// BuildCompressed is Build storing every per-fragment bitmap
// WAH-compressed. Queries run exactly as on Build's engine; a selection
// decodes the bitmaps it needs into the worker's scratch.
func BuildCompressed(t *data.Table, spec *frag.Spec, icfg frag.IndexConfig) (*Engine, error) {
	return build(t, spec, icfg, true)
}

func build(t *data.Table, spec *frag.Spec, icfg frag.IndexConfig, compressed bool) (*Engine, error) {
	star := t.Star
	if spec.Star() != star {
		return nil, fmt.Errorf("engine: spec built for a different schema")
	}
	if len(icfg) != len(star.Dims) {
		return nil, fmt.Errorf("engine: index config has %d entries for %d dimensions", len(icfg), len(star.Dims))
	}
	e := &Engine{
		star:       star,
		spec:       spec,
		icfg:       icfg,
		frags:      make(map[int64]*fragment),
		layouts:    make([]*bitmap.Layout, len(star.Dims)),
		compressed: compressed,
		solo:       exec.NewScratch(newScratch),
		shared:     exec.NewScratch(newSharedScratch),
	}
	for d := range star.Dims {
		if icfg[d].Kind == frag.EncodedIndex {
			e.layouts[d] = bitmap.NewLayout(&star.Dims[d], icfg[d].PadBits)
		}
	}

	// Pass 1: row counts per fragment.
	counts := make(map[int64]int)
	buf := make([]int, len(star.Dims))
	for i := 0; i < t.N(); i++ {
		id := spec.IDOf(t.LeafMembers(i, buf))
		counts[id]++
	}
	// Pass 2: distribute rows.
	for id, c := range counts {
		f := &fragment{cols: kernel.Columns{Dims: make([][]int32, len(star.Dims)),
			Units: make([]int64, 0, c), Dollars: make([]int64, 0, c), Costs: make([]int64, 0, c)}}
		for d := range f.cols.Dims {
			f.cols.Dims[d] = make([]int32, 0, c)
		}
		e.frags[id] = f
	}
	for i := 0; i < t.N(); i++ {
		id := spec.IDOf(t.LeafMembers(i, buf))
		f := e.frags[id]
		for d, col := range f.cols.Dims {
			f.cols.Dims[d] = append(col, t.Dims[d][i])
		}
		f.cols.Units = append(f.cols.Units, t.UnitsSold[i])
		f.cols.Dollars = append(f.cols.Dollars, t.DollarSales[i])
		f.cols.Costs = append(f.cols.Costs, t.Cost[i])
		f.rows++
	}
	// Pass 3: per-fragment index construction. vals is reused across all
	// fragments and levels.
	var vals []int32
	for _, f := range e.frags {
		vals = e.buildIndexes(f, vals)
	}
	return e, nil
}

// Compact returns the engine of the next epoch: this one's rows
// followed, fragment by fragment, by the delta set's segments in seal
// order — the engine Build gives for the merged rows, at the cost of the
// fragments the set touches. A fragment without a segment is shared with
// e by pointer (fragments are immutable once built); a fragment with
// segments is copied out with the segments' rows appended and has its
// indices rebuilt. The worker scratch lists are e's: both engines' tasks
// share them.
func (e *Engine) Compact(deltas *frag.DeltaSet) *Engine {
	ne := *e
	ne.frags = make(map[int64]*fragment, len(e.frags)+deltas.Fragments())
	for id, f := range e.frags {
		ne.frags[id] = f
	}
	var vals []int32
	for _, id := range deltas.FragmentIDs() {
		segs := deltas.Of(id)
		old := e.frags[id]
		if old == nil { // new to the engine
			old = &fragment{cols: kernel.Columns{Dims: make([][]int32, len(e.star.Dims))}}
		}
		f := &fragment{rows: old.rows}
		for _, seg := range segs {
			f.rows += seg.Rows()
		}
		c := &f.cols
		c.Dims = make([][]int32, len(old.cols.Dims))
		for d := range c.Dims {
			c.Dims[d] = append(make([]int32, 0, f.rows), old.cols.Dims[d]...)
		}
		c.Units = append(make([]int64, 0, f.rows), old.cols.Units...)
		c.Dollars = append(make([]int64, 0, f.rows), old.cols.Dollars...)
		c.Costs = append(make([]int64, 0, f.rows), old.cols.Costs...)
		for _, seg := range segs {
			for d := range c.Dims {
				c.Dims[d] = append(c.Dims[d], seg.Leaves(d)...)
			}
			c.Units = append(c.Units, seg.Units()...)
			c.Dollars = append(c.Dollars, seg.Dollars()...)
			c.Costs = append(c.Costs, seg.Costs()...)
		}
		vals = ne.buildIndexes(f, vals)
		ne.frags[id] = f
	}
	return &ne
}

// fragLevel returns the fragmentation level of dimension d, or -1.
func (e *Engine) fragLevel(d int) int {
	if ai := e.spec.AttrOfDim(d); ai != -1 {
		return e.spec.Attrs()[ai].Level
	}
	return -1
}

// buildIndexes constructs the fragment's surviving bitmap indices,
// compressing them (and dropping the uncompressed forms) in compressed
// mode. vals is a reusable level-member buffer; the grown slice is
// returned for the next fragment.
func (e *Engine) buildIndexes(f *fragment, vals []int32) []int32 {
	nd := len(e.star.Dims)
	f.encoded = make([]encodedIndex, nd)
	f.simple = make([][]simpleIndex, nd)
	for d := 0; d < nd; d++ {
		dim := &e.star.Dims[d]
		fl := e.fragLevel(d)
		switch e.icfg[d].Kind {
		case frag.EncodedIndex:
			// The full index is built; within a fragment only the suffix
			// bitmaps below the fragmentation level carry information and
			// only they are evaluated (SelectPartial).
			if fl != dim.Leaf() { // fully eliminated when fragmenting on the leaf
				idx := bitmap.NewEncodedIndex(e.layouts[d], f.cols.Dims[d])
				if e.compressed {
					f.encoded[d] = bitmap.CompressEncodedIndex(idx)
				} else {
					f.encoded[d] = idx
				}
			}
		default:
			f.simple[d] = make([]simpleIndex, dim.Depth())
			for l := fl + 1; l < dim.Depth(); l++ {
				if cap(vals) < f.rows {
					vals = make([]int32, f.rows)
				}
				vals = vals[:f.rows]
				for i, leaf := range f.cols.Dims[d] {
					vals[i] = int32(dim.Ancestor(dim.Leaf(), int(leaf), l))
				}
				idx := bitmap.NewSimpleIndex(dim.Levels[l].Card, vals)
				if e.compressed {
					f.simple[d][l] = bitmap.CompressSimpleIndex(idx)
				} else {
					f.simple[d][l] = idx
				}
			}
		}
	}
	return vals
}

// NumFragments returns the number of non-empty fragments materialised.
func (e *Engine) NumFragments() int { return len(e.frags) }

// scratch is the per-worker buffer set threaded through internal/exec:
// the selection bitsets, reused across all fragments a worker processes,
// in every call, so the hot loops run allocation-free once warm.
type scratch struct {
	hits *bitmap.Bitset // running AND of predicate selections
	sel  *bitmap.Bitset // current predicate's selection
}

func newScratch() *scratch {
	return &scratch{hits: bitmap.New(0), sel: bitmap.New(0)}
}

// rowKey composes a row's group key from the fragment-constant base and
// the per-row GroupBy levels, reading the row's leaf members off the
// column store.
func rowKey(base uint64, perRow []kernel.RowLevel, dims [][]int32, i int) uint64 {
	for _, rl := range perRow {
		base += uint64(int64(dims[rl.Dim][i])/rl.Div) * rl.Weight
	}
	return base
}

// Solo runs the star query through kernel.Solo on the scheduler's pool —
// its fragment tasks interleave with every other execution admitted to
// the scheduler — over the relevant fragments own selects (nil selects
// all). The engine's share is the fragment fold (Section 4.3): bitmap
// access into sc's reusable bitsets, then aggregation of the hit rows —
// of all rows when no bitmap is needed (query types Q1/Q3) — by the
// kernel's column Sum, or row by row into a fragment-local group map on
// the per-row grouping fallback. A fragment holding neither base rows
// nor delta segments counts as not processed.
func (e *Engine) Solo(ctx context.Context, s *exec.Scheduler, q frag.Query, deltas kernel.Deltas, own func(int64) bool) (kernel.Out[Stats], error) {
	d := kernel.Dispatch[*scratch]{Star: e.star, Spec: e.spec, Sched: s, Scratch: e.solo}
	return kernel.Solo(ctx, d, q, deltas, own, func() (kernel.SoloFold[*scratch, Stats], error) {
		return func(sc *scratch, id int64, q frag.Query, slot kernel.Slot) (kernel.FragPartial, Stats, error) {
			var st Stats
			f, ok := e.frags[id] // absent: the fragment has no rows at this density
			switch {
			case ok && e.selectInto(f, q, sc.hits, sc.sel, &st):
				slot.AddColsSelected(f.cols, sc.hits)
			case ok: // every fragment row is relevant (no bitmap access, IOC1-style)
				slot.AddColsRange(f.cols, 0, f.rows)
			}
			st.RowsScanned = slot.Rows
			if ok || deltas.Has(id) {
				st.FragmentsProcessed = 1
			}
			return slot.FP, st, nil
		}, nil
	})
}

// ExecuteGroupedDeltas runs the query and returns the full result: the
// grand total plus, when the query has a GroupBy, the per-group rows in
// the deterministic kernel order. The pinned delta snapshot is folded
// into every fragment's partial — base rows first, then the delta
// segments in seal order — so the epoch-versioned warehouse serves
// base+delta results byte-identical to an engine rebuilt from scratch
// with the same rows, at any pool size or admission mix.
func (e *Engine) ExecuteGroupedDeltas(ctx context.Context, s *exec.Scheduler, q frag.Query, deltas kernel.Deltas) (kernel.Result, Stats, error) {
	o, err := e.Solo(ctx, s, q, deltas, nil)
	return o.Gr.Result(o.Part), o.St, err
}

// ExecutePartialDeltas runs the query over only the relevant fragments
// selected by own (nil selects all) and returns the un-flattened partial
// — the fragment-range contribution one cluster node serves. The grand
// total and per-key group aggregates commute under addition, so a
// coordinator merging the partials of a fragment-disjoint node partition
// and flattening through Grouper.Rows obtains results byte-identical to
// a single-node execution over the union of the rows.
func (e *Engine) ExecutePartialDeltas(ctx context.Context, s *exec.Scheduler, q frag.Query, deltas kernel.Deltas, own func(int64) bool) (kernel.FragPartial, Stats, error) {
	o, err := e.Solo(ctx, s, q, deltas, own)
	return o.Part, o.St, err
}

// selectInto is the bitmap access of one query inside one fragment
// (Section 4.3 step 2): the selections of the predicates that need a
// bitmap, ANDed into dst with sel as the second operand's buffer. It
// reports false, leaving dst alone, when no predicate needs one — every
// fragment row is relevant. BitmapsRead lands on st.
func (e *Engine) selectInto(f *fragment, q frag.Query, dst, sel *bitmap.Bitset, st *Stats) bool {
	selected := false
	for _, pr := range q.Preds {
		if !e.spec.NeedsBitmap(pr) {
			continue
		}
		into := dst
		if selected {
			into = sel
		}
		switch e.icfg[pr.Dim].Kind {
		case frag.EncodedIndex:
			nb := f.encoded[pr.Dim].SelectPartialInto(into, e.fragLevel(pr.Dim), pr.Level, pr.Member)
			st.BitmapsRead += int64(nb)
		default:
			f.simple[pr.Dim][pr.Level].SelectInto(into, pr.Member)
			st.BitmapsRead++
		}
		if selected {
			dst.And(sel)
		}
		selected = true
	}
	return selected
}

// Scan computes the query's grand total by a naive full scan of the table
// — the correctness oracle for execution. Any GroupBy is ignored; use
// ScanGrouped for the grouped oracle.
func Scan(t *data.Table, q frag.Query) Aggregate {
	var agg Aggregate
	star := t.Star
	for i := 0; i < t.N(); i++ {
		if scanMatch(star, t, q, i) {
			agg.AddRow(t.UnitsSold[i], t.DollarSales[i], t.Cost[i])
		}
	}
	return agg
}

// ScanGrouped computes the full (grouped) query result by naive scan with
// per-row bucketing straight off the base table — the brute-force oracle
// every grouped execution path is checked against.
func ScanGrouped(t *data.Table, q frag.Query) (kernel.Result, error) {
	star := t.Star
	if err := q.Validate(star); err != nil {
		return kernel.Result{}, err
	}
	gr, err := kernel.NewGrouper(star, nil, q.GroupBy)
	if err != nil {
		return kernel.Result{}, err
	}
	var res kernel.Result
	var g *kernel.Grouped
	var perRow []kernel.RowLevel
	if gr != nil {
		g = kernel.NewGrouped()
		perRow = gr.PerRow() // spec-free: every level buckets per row
	}
	for i := 0; i < t.N(); i++ {
		if !scanMatch(star, t, q, i) {
			continue
		}
		res.AddRow(t.UnitsSold[i], t.DollarSales[i], t.Cost[i])
		if g != nil {
			g.AddRow(rowKey(0, perRow, t.Dims, i), t.UnitsSold[i], t.DollarSales[i], t.Cost[i])
		}
	}
	if gr != nil {
		res.Groups = gr.Rows(g)
	}
	return res, nil
}

func scanMatch(star *schema.Star, t *data.Table, q frag.Query, i int) bool {
	for _, p := range q.Preds {
		d := &star.Dims[p.Dim]
		if d.Ancestor(d.Leaf(), int(t.Dims[p.Dim][i]), p.Level) != p.Member {
			return false
		}
	}
	return true
}
