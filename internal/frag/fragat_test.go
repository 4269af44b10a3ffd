package frag

import (
	"fmt"
	"testing"

	"repro/internal/schema"
)

// fourDims is a star of four dimensions with two or three levels each,
// small enough that every fragmentation of it can be enumerated.
func fourDims() *schema.Star {
	return &schema.Star{
		Name: "four",
		Dims: []schema.Dimension{
			{Name: "a", Levels: []schema.Level{{Name: "a1", Card: 2}, {Name: "a2", Card: 4}, {Name: "a3", Card: 8}}},
			{Name: "b", Levels: []schema.Level{{Name: "b1", Card: 3}, {Name: "b2", Card: 6}}},
			{Name: "c", Levels: []schema.Level{{Name: "c1", Card: 2}, {Name: "c2", Card: 6}, {Name: "c3", Card: 12}}},
			{Name: "d", Levels: []schema.Level{{Name: "d1", Card: 5}, {Name: "d2", Card: 10}}},
		},
		Density: 0.5, TupleSize: 20, PageSize: 4096, TuplesPerPage: 16,
	}
}

// checkFragmentAt asserts that the i-th fragment of q's region is
// FragmentIDs(q)[i] for every i, and returns how many there are.
func checkFragmentAt(t *testing.T, spec *Spec, q Query) int {
	t.Helper()
	ids := spec.FragmentIDs(q)
	r := spec.Relevant(q)
	if int64(len(ids)) != r.Count() {
		t.Fatalf("%v %+v: %d ids for a region of %d", spec, q, len(ids), r.Count())
	}
	for i, want := range ids {
		if got := spec.FragmentAt(r, int64(i)); got != want {
			t.Fatalf("%v %+v: fragment %d is %d, FragmentIDs has %d", spec, q, i, got, want)
		}
	}
	return len(ids)
}

func TestFragmentAtMatchesFragmentIDs(t *testing.T) {
	apb := schema.APB1Scaled(60)
	card := func(dim, level string) int {
		d := &apb.Dims[apb.DimIndex(dim)]
		return d.Levels[d.LevelIndex(level)].Card
	}
	groups, months := card(schema.DimProduct, schema.LvlGroup), card(schema.DimTime, schema.LvlMonth)
	four := fourDims()
	for _, tc := range []struct {
		star  *schema.Star
		spec  string
		query string
		count int
	}{
		{apb, "time::month, product::group", "time::month=3, product::group=5", 1},   // equal
		{apb, "time::month, product::group", "time::month=3", groups},                // one attribute free
		{apb, "time::month, product::group", "time::quarter=2, product::code=77", 3}, // coarser and finer
		{apb, "time::month, product::group", "customer::store=9", months * groups},   // no fragmentation dimension
		{four, "a::a2", "a::a1=1", 2},
		{four, "d::d1, a::a2", "a::a3=5, d::d2=7", 1},
		{four, "b::b2, c::c2, a::a1", "c::c1=1, b::b1=2", 2 * 3 * 2},
		{four, "a::a2, b::b1, c::c2, d::d1", "a::a1=0, c::c3=11, d::d2=4", 2 * 3 * 1 * 1},
		{four, "c::c3, d::d2, b::b2, a::a3", "", 12 * 10 * 6 * 8},
	} {
		t.Run(fmt.Sprintf("%s/%s", tc.spec, tc.query), func(t *testing.T) {
			spec := MustParse(tc.star, tc.spec)
			q, err := ParseQuery(tc.star, tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if n := checkFragmentAt(t, spec, q); n != tc.count {
				t.Fatalf("%d fragments, want %d", n, tc.count)
			}
		})
	}
}

// FuzzFragmentAt draws a fragmentation of one to four attributes of
// fourDims, in any order and at any level, and a query with a coarser,
// equal, finer or no predicate on each dimension: the i-th fragment of
// its region must be FragmentIDs' i-th, for every i.
func FuzzFragmentAt(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 2, 3, 2, 1, 0, 1, 1, 2, 2, 0, 5, 1, 7, 3, 3})
	f.Add([]byte{2, 3, 1, 1, 0, 2, 4, 0, 9, 1, 1})
	star := fourDims()
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
		attrs := make([]Attr, 1+next(4))
		for i := range attrs {
			d := order[i]
			attrs[i] = Attr{Dim: d, Level: next(star.Dims[d].Depth())}
		}
		spec, err := New(star, attrs)
		if err != nil {
			t.Fatal(err)
		}
		var q Query
		for _, d := range order {
			depth := star.Dims[d].Depth()
			if lvl := next(depth + 1); lvl < depth { // depth: no predicate
				q.Preds = append(q.Preds, Pred{Dim: d, Level: lvl, Member: next(star.Dims[d].Levels[lvl].Card)})
			}
		}
		checkFragmentAt(t, spec, q)
	})
}
