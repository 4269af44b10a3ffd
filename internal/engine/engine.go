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
// driver; the engine supplies the fragment fold (selectInto per member,
// then kernel.EvalMany), so its results are structurally identical to the
// on-disk executor's. Index fragments are
// Bitsets: a selection lands in a worker's scratch Bitset. WAH compression
// is a format of the on-disk store only (internal/storage).
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
	encoded []*bitmap.EncodedIndex
	// simple[d][l] is the simple bitmap index fragment on level l of
	// dimension d (nil where not materialised).
	simple [][]*bitmap.SimpleIndex
}

// Engine executes star queries over a fragmented fact table.
type Engine struct {
	star *schema.Star
	spec *frag.Spec
	icfg frag.IndexConfig

	frags map[int64]*fragment
	// layouts[d] is the encoding layout of dimension d (nil for simple).
	layouts []*bitmap.Layout

	// The worker scratch of the fragment fold, borrowed by every call's
	// tasks; Compact hands the list on to the next epoch's engine, so it
	// lives as long as the store.
	scratch *exec.Scratch[*scratch]
}

// Build partitions the table per the fragmentation spec and constructs the
// per-fragment bitmap indices that survive bitmap elimination
// (Section 4.2): for fragmentation dimensions only levels strictly below
// the fragmentation attribute are indexed.
func Build(t *data.Table, spec *frag.Spec, icfg frag.IndexConfig) (*Engine, error) {
	star := t.Star
	if spec.Star() != star {
		return nil, fmt.Errorf("engine: spec built for a different schema")
	}
	if len(icfg) != len(star.Dims) {
		return nil, fmt.Errorf("engine: index config has %d entries for %d dimensions", len(icfg), len(star.Dims))
	}
	e := &Engine{
		star:    star,
		spec:    spec,
		icfg:    icfg,
		frags:   make(map[int64]*fragment),
		layouts: make([]*bitmap.Layout, len(star.Dims)),
		scratch: exec.NewScratch(newScratch),
	}
	for d := range star.Dims {
		if icfg[d].Kind == frag.EncodedIndex {
			e.layouts[d] = bitmap.NewLayout(&star.Dims[d], icfg[d].PadBits)
		}
	}

	// Each fragment indexes its capped range of the one partition in place.
	p := kernel.NewPartition(spec, t)
	for k, id := range p.IDs {
		f := &fragment{rows: p.Starts[k+1] - p.Starts[k], cols: p.Fragment(k)}
		e.buildIndexes(f)
		e.frags[id] = f
	}
	return e, nil
}

// BuildCompressed is Build: the engine keeps its indices as Bitsets only.
//
// Deprecated: compression is a format of the on-disk store. Use Build.
func BuildCompressed(t *data.Table, spec *frag.Spec, icfg frag.IndexConfig) (*Engine, error) {
	return Build(t, spec, icfg)
}

// Compact returns the engine of the next epoch: this one's rows
// followed, fragment by fragment, by the delta set's segments in seal
// order — the engine Build gives for the merged rows, at the cost of the
// fragments the set touches. A fragment without a segment is shared with
// e by pointer (fragments are immutable once built); a fragment with
// segments is copied out with the segments' rows appended and has its
// indices rebuilt. The worker scratch list is e's: both engines' tasks
// share it.
func (e *Engine) Compact(deltas *frag.DeltaSet) *Engine {
	ne := *e
	ne.frags = make(map[int64]*fragment, len(e.frags)+deltas.Fragments())
	for id, f := range e.frags {
		ne.frags[id] = f
	}
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
		ne.buildIndexes(f)
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

// buildIndexes constructs the fragment's surviving bitmap indices from
// its leaf columns: an encoded index through the layout's code table, a
// simple one as one leaf range per member.
func (e *Engine) buildIndexes(f *fragment) {
	nd := len(e.star.Dims)
	f.encoded = make([]*bitmap.EncodedIndex, nd)
	f.simple = make([][]*bitmap.SimpleIndex, nd)
	for d := 0; d < nd; d++ {
		dim := &e.star.Dims[d]
		fl := e.fragLevel(d)
		switch e.icfg[d].Kind {
		case frag.EncodedIndex:
			// The full index is built; within a fragment only the suffix
			// bitmaps below the fragmentation level carry information and
			// only they are evaluated (SelectPartial).
			if fl != dim.Leaf() { // fully eliminated when fragmenting on the leaf
				f.encoded[d] = bitmap.NewEncodedIndex(e.layouts[d], f.cols.Dims[d])
			}
		default:
			f.simple[d] = make([]*bitmap.SimpleIndex, dim.Depth())
			for l := fl + 1; l < dim.Depth(); l++ {
				f.simple[d][l] = bitmap.NewLevelIndex(dim.Levels[l].Card, dim.FanOutBetween(l, dim.Leaf()), f.cols.Dims[d])
			}
		}
	}
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

// scratch is the fold's per-worker buffer set, reused across all
// fragments a worker processes, in every call, so the hot loops run
// allocation-free once warm: the task's members and slots, the per-slot
// selection masks, the second-operand buffer they are computed with, and
// the mask and slot lists handed to kernel.EvalMany.
type scratch struct {
	kernel.SharedTask[Stats]
	sel       *bitmap.Bitset
	masks     []*bitmap.Bitset
	evalMasks []*bitmap.Bitset
	evalSlots []*kernel.Slot
}

func newScratch() *scratch {
	return &scratch{sel: bitmap.New(0)}
}

func (sc *scratch) mask(k int) *bitmap.Bitset {
	for len(sc.masks) <= k {
		sc.masks = append(sc.masks, bitmap.New(0))
	}
	return sc.masks[k]
}

// Shared runs K star queries through kernel.Shared on the scheduler's
// pool — its fragment tasks interleave with every other execution
// admitted to the scheduler — over the relevant fragments own selects
// (nil selects all); a lone query is a batch of one. The engine's share
// is the fragment fold (Section 4.3): each member's bitmap access into
// the task's reusable masks, then every member's aggregation of its hit
// rows — of all rows when it needs no bitmap (query types Q1/Q3, a nil
// mask) — by the column kernel (kernel.EvalMany). A fragment holding
// neither base rows nor delta segments counts as not processed. The
// engine performs no physical reads, so Out.Shared records only batch
// membership and fragment co-scanning (PhysReadsSaved stays 0).
func (e *Engine) Shared(ctx context.Context, s *exec.Scheduler, qs []frag.Query, deltas kernel.Deltas, own func(int64) bool) (kernel.Outs[Stats], error) {
	d := kernel.Dispatch[*scratch]{Star: e.star, Spec: e.spec, Sched: s, Scratch: e.scratch}
	return kernel.Shared(ctx, d, qs, deltas, own, func(f *fold, _ []kernel.BatchQuery) error {
		f.e, f.deltas = e, deltas
		return nil
	})
}

// fold is the engine's fold bound to one Shared call (kernel.SharedFold).
type fold struct {
	e      *Engine
	deltas kernel.Deltas
}

func (f *fold) Fold(sc *scratch, id int64, batch []kernel.BatchQuery, ms []kernel.Member[Stats], slots []kernel.Slot) error {
	fr, ok := f.e.frags[id]
	if !ok && !f.deltas.Has(id) {
		return nil // fragment has no rows at this density
	}
	if ok {
		shared := len(ms) >= 2
		sc.evalMasks, sc.evalSlots = sc.evalMasks[:0], sc.evalSlots[:0]
		for k := range ms {
			var mask *bitmap.Bitset
			if m := sc.mask(k); f.e.selectInto(fr, batch[ms[k].Query].Preds, m, sc.sel, &ms[k].St) {
				mask = m
			}
			sc.evalMasks, sc.evalSlots = append(sc.evalMasks, mask), append(sc.evalSlots, &slots[k])
			if shared {
				ms[k].Shared.FragmentsShared = 1
			}
		}
		kernel.EvalMany(sc.evalSlots, sc.evalMasks, fr.rows, fr.cols, nil)
	}
	for k := range ms {
		ms[k].St.RowsScanned += slots[k].Rows
		ms[k].St.FragmentsProcessed = 1
	}
	return nil
}

// ExecuteSharedDeltas is Shared with every member's rows flattened.
func (e *Engine) ExecuteSharedDeltas(ctx context.Context, s *exec.Scheduler, qs []frag.Query, deltas kernel.Deltas, own func(int64) bool) ([]kernel.SharedResult[Stats], error) {
	return kernel.Flatten(e.Shared(ctx, s, qs, deltas, own))
}

// ExecuteGroupedDeltas runs the query and returns the full result: the
// grand total plus, when the query has a GroupBy, the per-group rows in
// the deterministic kernel order. The pinned delta snapshot is folded
// into every fragment's partial — base rows first, then the delta
// segments in seal order — so the epoch-versioned warehouse serves
// base+delta results byte-identical to an engine rebuilt from scratch
// with the same rows, at any pool size or admission mix.
func (e *Engine) ExecuteGroupedDeltas(ctx context.Context, s *exec.Scheduler, q frag.Query, deltas kernel.Deltas) (kernel.Result, Stats, error) {
	o, err := kernel.Lone(e.Shared(ctx, s, []frag.Query{q}, deltas, nil))
	return o.Gr.Result(o.Part), o.St, err
}

// selectInto is the bitmap access of one query inside one fragment
// (Section 4.3 step 2): the selections of the predicates that need a
// bitmap, ANDed into dst with sel as the second operand's buffer. It
// reports false, leaving dst alone, when no predicate needs one — every
// fragment row is relevant. BitmapsRead lands on st.
func (e *Engine) selectInto(f *fragment, preds []frag.Pred, dst, sel *bitmap.Bitset, st *Stats) bool {
	selected := false
	for _, pr := range preds {
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
	var g kernel.Grouped
	var perRow []kernel.RowLevel
	if gr != nil {
		perRow = gr.PerRow() // spec-free: every level buckets per row
	}
	for i := 0; i < t.N(); i++ {
		if !scanMatch(star, t, q, i) {
			continue
		}
		res.AddRow(t.UnitsSold[i], t.DollarSales[i], t.Cost[i])
		if gr != nil {
			g.AddRow(rowKey(0, perRow, t.Dims, i), t.UnitsSold[i], t.DollarSales[i], t.Cost[i])
		}
	}
	if gr != nil {
		res.Groups = gr.Rows(g.Run())
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
