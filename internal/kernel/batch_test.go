package kernel

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/frag"
	"repro/internal/schema"
)

// planStar is a star of four dimensions with two or three levels each,
// small enough that every fragment of every fragmentation of it can be
// listed.
func planStar() *schema.Star {
	return &schema.Star{
		Name: "plan",
		Dims: []schema.Dimension{
			{Name: "a", Levels: []schema.Level{{Name: "a1", Card: 2}, {Name: "a2", Card: 4}, {Name: "a3", Card: 8}}},
			{Name: "b", Levels: []schema.Level{{Name: "b1", Card: 3}, {Name: "b2", Card: 6}}},
			{Name: "c", Levels: []schema.Level{{Name: "c1", Card: 2}, {Name: "c2", Card: 6}, {Name: "c3", Card: 12}}},
			{Name: "d", Levels: []schema.Level{{Name: "d1", Card: 5}, {Name: "d2", Card: 10}}},
		},
		Density: 0.5, TupleSize: 20, PageSize: 4096, TuplesPerPage: 16,
	}
}

// checkPlan holds a BatchPlan against FragmentIDs: the tasks' fragments are
// the ascending, de-duplicated union of the valid members' fragments
// that own selects, listed unless there is one valid member and no own
// filter, and task ti's members are exactly those whose list holds
// its fragment — planned in a recycled plan, which an earlier call of
// three members over every fragment left emptied.
func checkPlan(t *testing.T, star *schema.Star, spec *frag.Spec, qs []frag.Query, own func(int64) bool) {
	t.Helper()
	b := new(batch[*fakeScratch, fakeCounts, fakeFold, *fakeFold])
	p := &b.BatchPlan
	p.plan(star, spec, []frag.Query{{}, {}, {}}, Deltas{}, nil)
	b.Reset()
	p.plan(star, spec, qs, Deltas{}, own)
	lists := make([][]int64, len(qs))
	var want []int64
	for si, q := range qs {
		if q.Validate(star) != nil {
			if p.Queries[si].Err == nil {
				t.Fatalf("%v: member %d (%+v) is invalid and planned", spec, si, q)
			}
			continue
		}
		if p.Queries[si].Err != nil {
			t.Fatalf("%v: member %d: %v", spec, si, p.Queries[si].Err)
		}
		lists[si] = spec.FragmentIDs(q)
		for _, id := range lists[si] {
			if own == nil || own(id) {
				want = append(want, id)
			}
		}
	}
	slices.Sort(want)
	want = slices.Compact(want)
	ids := make([]int64, p.Tasks())
	for ti := range ids {
		ids[ti] = p.at(ti)
	}
	if !slices.Equal(ids, want) || p.listed == (len(qs) == 1 && own == nil && p.Queries[0].Err == nil) {
		t.Fatalf("%v %+v: tasks %v (listed %v), want %v", spec, qs, ids, p.listed, want)
	}
	for _, id := range ids {
		for si := range qs {
			_, in := slices.BinarySearch(lists[si], id)
			if got := p.Needs(si, id); got != in {
				t.Fatalf("%v %+v: member %d needs fragment %d: %v, its list holds it: %v", spec, qs, si, id, got, in)
			}
		}
	}
}

func TestPlanBatchMatchesFragmentIDs(t *testing.T) {
	star := planStar()
	invalid := "invalid"
	for _, tc := range []struct {
		spec    string
		queries []string
		own     func(int64) bool
	}{
		{"a::a2", []string{"a::a1=1"}, nil},
		{"a::a2", []string{"a::a1=1", "a::a1=1", "a::a3=7"}, nil},                 // duplicates and a member inside another
		{"a::a2, b::b1", []string{"a::a2=0", "b::b1=2", invalid, "a::a2=3"}, nil}, // crossing regions, an invalid member
		{"d::d1, a::a2", []string{"a::a3=5, d::d2=7", "d::d1=0", ""}, func(id int64) bool { return id%3 != 1 }},
		{"b::b2, c::c2, a::a1", []string{"c::c1=1, b::b1=2", "c::c3=11", "a::a1=0 group by b::b2"}, nil},
		{"a::a2, b::b1, c::c2, d::d1", []string{"a::a1=0, c::c3=11, d::d2=4", "b::b2=5", invalid}, func(id int64) bool { return id%2 == 0 }},
		{"a::a2", []string{invalid, invalid}, nil},                        // no valid member: no task
		{"a::a2", []string{"a::a1=1"}, func(int64) bool { return false }}, // nothing owned
	} {
		t.Run(fmt.Sprintf("%s/%q", tc.spec, tc.queries), func(t *testing.T) {
			spec := frag.MustParse(star, tc.spec)
			qs := make([]frag.Query, len(tc.queries))
			for i, text := range tc.queries {
				if text == invalid {
					qs[i] = frag.Query{Preds: []frag.Pred{{Dim: 99}}}
					continue
				}
				var err error
				if qs[i], err = frag.ParseQuery(star, text); err != nil {
					t.Fatal(err)
				}
			}
			checkPlan(t, star, spec, qs, tc.own)
		})
	}
}

// FuzzPlanBatch draws a fragmentation of one to four attributes of
// planStar, in any order and at any level, one to sixteen members — each
// with a coarser, equal, finer or no predicate per dimension, a repeat of
// an earlier member or an invalid query — and an own filter: the plan
// must be FragmentIDs' union and membership (checkPlan).
func FuzzPlanBatch(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 2, 3, 2, 1, 0, 1, 15, 1, 2, 2, 0, 5, 1, 7, 3, 3, 9, 9, 9})
	f.Add([]byte{2, 3, 1, 1, 0, 2, 4, 7, 0, 9, 1, 1, 200, 4, 4, 4, 4, 4, 4})
	star := planStar()
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func(n int) int {
			if len(in) == 0 {
				return 0
			}
			b := int(in[0])
			in = in[1:]
			return b % n
		}
		order := []int{0, 1, 2, 3}
		for i := range order { // a permutation of the dimensions, attribute order first
			j := i + next(len(order)-i)
			order[i], order[j] = order[j], order[i]
		}
		attrs := make([]frag.Attr, 1+next(4))
		for i := range attrs {
			d := order[i]
			attrs[i] = frag.Attr{Dim: d, Level: next(star.Dims[d].Depth())}
		}
		spec, err := frag.New(star, attrs)
		if err != nil {
			t.Fatal(err)
		}
		var own func(int64) bool
		if m := next(4); m > 0 {
			r := int64(next(m + 1))
			own = func(id int64) bool { return id%int64(m+1) != r }
		}
		qs := make([]frag.Query, 1+next(16))
		for i := range qs {
			switch kind := next(8); {
			case kind == 0:
				qs[i] = frag.Query{Preds: []frag.Pred{{Dim: 99}}}
			case kind == 1 && i > 0:
				qs[i] = qs[next(i)]
			default:
				for _, d := range order {
					depth := star.Dims[d].Depth()
					if lvl := next(depth + 1); lvl < depth { // depth: no predicate
						qs[i].Preds = append(qs[i].Preds, frag.Pred{Dim: d, Level: lvl, Member: next(star.Dims[d].Levels[lvl].Card)})
					}
				}
			}
		}
		checkPlan(t, star, spec, qs, own)
	})
}
