package kernel

import (
	"slices"

	"repro/internal/frag"
	"repro/internal/schema"
)

// BatchQuery is one member of a shared multi-query scan before dispatch:
// the query's predicates, its grouper (nil when ungrouped) — the query's
// GROUP BY — its own validation error, which stays the member's instead
// of failing the batch, and its bitmap plan, which a backend reading
// stored bitmaps derives in room kept from call to call.
type BatchQuery struct {
	Preds []frag.Pred
	Gr    *Grouper
	Err   error
	Plan  []frag.BitmapOp

	ranges []frag.LeafRange  // the query compiled for the delta fold (Deltas.ranges)
	region frag.Region       // the query's relevant fragments (Spec.Relevant)
	delta  frag.DeltaScratch // the room ranges are compiled in, kept from call to call
}

// BatchPlan is the task set of a shared multi-query scan: one task per
// fragment of the union of the valid members' relevant fragments. It is
// recycled with its call, keeping its buffers from call to call.
type BatchPlan struct {
	Queries []BatchQuery
	ids     []int64 // the union's fragments, ascending, one task each, when listed
	listed  bool    // false: the tasks are a lone member's region
	spec    *frag.Spec
	bounds  []int // the members' regions' bounds
	cur     []cursor
}

// plan validates every query, derives its grouper, compiles it for the
// delta fold and unions the members' relevant fragments, keeping only
// those own selects (nil selects all). The union is ascending, as FragmentAt
// enumerates each region, so a member's tasks are claimed in its
// region's order. A valid batch of one takes its tasks from its region,
// listing them only under an own filter; a larger union is merged.
func (p *BatchPlan) plan(star *schema.Star, spec *frag.Spec, qs []frag.Query, deltas Deltas, own func(int64) bool) {
	p.spec, p.bounds = spec, p.bounds[:0]
	p.Queries = slices.Grow(p.Queries[:0], len(qs))[:len(qs)]
	for si, q := range qs {
		m := &p.Queries[si]
		m.Preds = q.Preds
		if m.Err = q.Validate(star); m.Err != nil {
			continue
		}
		if m.Gr, m.Err = NewGrouper(star, spec, q.GroupBy); m.Err != nil {
			continue
		}
		m.ranges = deltas.ranges(q, &m.delta)
		p.bounds, m.region = spec.AppendRelevant(p.bounds, q)
	}
	if len(qs) == 1 && own == nil && p.Queries[0].Err == nil {
		return
	}
	p.cur = slices.Grow(p.cur[:0], len(qs))[:len(qs)]
	p.ids, p.listed = p.ids[:0], true
	p.each(own, p.cur, func(id int64) { p.ids = append(p.ids, id) })
}

// Tasks returns the number of the plan's tasks.
func (p *BatchPlan) Tasks() int {
	if !p.listed {
		return int(p.Queries[0].region.Count())
	}
	return len(p.ids)
}

// at returns task ti's fragment: listed, or the ti-th of a batch of
// one's region in ForEachFragment's order.
func (p *BatchPlan) at(ti int) int64 {
	if p.listed {
		return p.ids[ti]
	}
	return p.spec.FragmentAt(p.Queries[0].region, int64(ti))
}

// cursor is the union merge's position in one member's region: its next
// fragment, which is the region's i-th of n.
type cursor struct{ i, n, head int64 }

// each calls fn with every fragment of the valid members' regions that
// own selects, ascending and once each: a batch of one walks its region,
// a larger one merges the regions — a k-way merge, each member's cursor
// in cur advancing past the fragment just emitted.
func (p *BatchPlan) each(own func(int64) bool, cur []cursor, fn func(id int64)) {
	if len(p.Queries) == 1 {
		if m := &p.Queries[0]; m.Err == nil {
			for i, n := int64(0), m.region.Count(); i < n; i++ {
				if id := p.spec.FragmentAt(m.region, i); own == nil || own(id) {
					fn(id)
				}
			}
		}
		return
	}
	for si := range p.Queries {
		if m := &p.Queries[si]; m.Err == nil {
			cur[si] = cursor{n: m.region.Count(), head: p.spec.FragmentAt(m.region, 0)}
		}
	}
	for {
		id := int64(-1)
		for _, c := range cur {
			if c.i < c.n && (id < 0 || c.head < id) {
				id = c.head
			}
		}
		if id < 0 {
			return
		}
		if own == nil || own(id) {
			fn(id)
		}
		for si := range cur {
			if c := &cur[si]; c.i < c.n && c.head == id {
				c.i++
				c.head = p.spec.FragmentAt(p.Queries[si].region, c.i)
			}
		}
	}
}

// Needs reports whether member si needs fragment id of the plan's tasks:
// whether it is valid and the fragment lies in its region, as every task
// of a batch of one does.
func (p *BatchPlan) Needs(si int, id int64) bool {
	m := &p.Queries[si]
	return m.Err == nil && (len(p.Queries) == 1 || p.spec.InRegion(m.region, id))
}
