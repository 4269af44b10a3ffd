package kernel

import (
	"slices"

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
}

// BatchPlan is the task set of a shared multi-query scan: one task per
// fragment of the union of the valid members' relevant fragments.
type BatchPlan struct {
	Queries []BatchQuery
	// IDs lists the union's fragment ids, one task each, ascending.
	IDs     []int64
	members map[int64][]int32
}

// PlanBatch validates every query, derives its grouper, compiles it for
// the delta fold and unions the members' relevant fragments, keeping only
// those own selects (nil selects all).
//
// The union is sorted ascending, as FragmentIDs enumerates each query's
// fragments, so a member's tasks are claimed in its solo task order.
func PlanBatch(star *schema.Star, spec *frag.Spec, qs []frag.Query, deltas Deltas, own func(int64) bool) BatchPlan {
	p := BatchPlan{Queries: make([]BatchQuery, len(qs)), members: make(map[int64][]int32)}
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
		for _, id := range spec.FragmentIDs(q) {
			if own != nil && !own(id) {
				continue
			}
			if _, ok := p.members[id]; !ok {
				p.IDs = append(p.IDs, id)
			}
			p.members[id] = append(p.members[id], int32(si))
		}
	}
	slices.Sort(p.IDs)
	return p
}

// Members returns, ascending, the indices into Queries of the members
// that need task ti's fragment.
func (p BatchPlan) Members(ti int) []int32 { return p.members[p.IDs[ti]] }
