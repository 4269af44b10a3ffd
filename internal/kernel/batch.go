package kernel

import (
	"repro/internal/frag"
	"repro/internal/schema"
)

// BatchQuery is one member of a shared multi-query scan before dispatch:
// the query, its grouper (nil when ungrouped) and its own validation
// error, which stays the member's instead of failing the batch.
type BatchQuery struct {
	Q   frag.Query
	Gr  *Grouper
	Err error

	ranges []frag.LeafRange // Q compiled for the delta fold (Deltas.ranges)
	region frag.Region      // Q's relevant fragments (Spec.Relevant)
	count  int64            // region.Count(), 0 for an invalid member
	next   int64            // the union merge's cursor into region
	head   int64            // region's next-th fragment
}

// BatchPlan is the task set of a shared multi-query scan: one task per
// fragment of the union of the valid members' relevant fragments.
type BatchPlan struct {
	Queries []BatchQuery
	// IDs lists the union's fragment ids, one task each, ascending.
	IDs  []int64
	spec *frag.Spec
}

// PlanBatch validates every query, derives its grouper, compiles it for
// the delta fold and unions the members' relevant fragments, keeping only
// those own selects (nil selects all).
//
// The union is ascending, as FragmentAt enumerates each region, so a
// member's tasks are claimed in its solo task order. It is merged twice,
// once to count it and once to fill IDs sized to the count.
func PlanBatch(star *schema.Star, spec *frag.Spec, qs []frag.Query, deltas Deltas, own func(int64) bool) BatchPlan {
	p := BatchPlan{Queries: make([]BatchQuery, len(qs)), spec: spec}
	for si, q := range qs {
		m := &p.Queries[si]
		m.Q = q
		if m.Err = q.Validate(star); m.Err != nil {
			continue
		}
		if m.Gr, m.Err = NewGrouper(star, spec, q.GroupBy); m.Err != nil {
			continue
		}
		m.ranges = deltas.ranges(q)
		m.region = spec.Relevant(q)
		m.count = m.region.Count()
	}
	n := 0
	p.union(own, func(int64) { n++ })
	p.IDs = make([]int64, 0, n)
	p.union(own, func(id int64) { p.IDs = append(p.IDs, id) })
	return p
}

// union calls fn with every fragment of the valid members' regions that
// own selects, ascending and once each: a k-way merge of the regions,
// each member's cursor advancing past the fragment just emitted.
func (p *BatchPlan) union(own func(int64) bool, fn func(id int64)) {
	for si := range p.Queries {
		m := &p.Queries[si]
		m.next, m.head = 0, p.spec.FragmentAt(m.region, 0)
	}
	for {
		id := int64(-1)
		for si := range p.Queries {
			if m := &p.Queries[si]; m.next < m.count && (id < 0 || m.head < id) {
				id = m.head
			}
		}
		if id < 0 {
			return
		}
		if own == nil || own(id) {
			fn(id)
		}
		for si := range p.Queries {
			if m := &p.Queries[si]; m.next < m.count && m.head == id {
				m.next++
				m.head = p.spec.FragmentAt(m.region, m.next)
			}
		}
	}
}

// Needs reports whether member si needs task ti's fragment: whether it is
// valid and the fragment lies in its region.
func (p *BatchPlan) Needs(si, ti int) bool {
	m := &p.Queries[si]
	return m.Err == nil && p.spec.InRegion(m.region, p.IDs[ti])
}
