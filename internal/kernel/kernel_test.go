package kernel

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/frag"
	"repro/internal/schema"
)

// TestGrouperFragKeyMatchesCoordArithmetic checks the id-based
// mixed-radix decomposition of FragKey against the spec's own Coord and
// explicit ancestor arithmetic, for every fragment and several GroupBy
// shapes.
func TestGrouperFragKeyMatchesCoordArithmetic(t *testing.T) {
	s := schema.Tiny()
	spec := frag.MustParse(s, "time::month, product::group")
	pd := s.DimIndex(schema.DimProduct)
	td := s.DimIndex(schema.DimTime)
	cases := [][]frag.LevelRef{
		{{Dim: td, Level: s.Dims[td].LevelIndex(schema.LvlMonth)}},
		{{Dim: td, Level: s.Dims[td].LevelIndex(schema.LvlQuarter)}},
		{{Dim: pd, Level: s.Dims[pd].LevelIndex(schema.LvlGroup)}, {Dim: td, Level: s.Dims[td].LevelIndex(schema.LvlQuarter)}},
		{{Dim: td, Level: s.Dims[td].LevelIndex(schema.LvlQuarter)}, {Dim: pd, Level: s.Dims[pd].LevelIndex(schema.LvlGroup)}},
	}
	for ci, groupBy := range cases {
		g, err := NewGrouper(s, spec, groupBy)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.PerRow()) != 0 {
			t.Fatalf("case %d: expected aligned", ci)
		}
		for id := int64(0); id < spec.NumFragments(); id++ {
			coord := spec.Coord(id)
			var want uint64
			for i, ref := range groupBy {
				ai := spec.AttrOfDim(ref.Dim)
				a := spec.Attrs()[ai]
				d := &s.Dims[ref.Dim]
				m := d.Ancestor(a.Level, coord[ai], ref.Level)
				w := uint64(1)
				for j := i + 1; j < len(groupBy); j++ {
					w *= uint64(s.Dims[groupBy[j].Dim].Levels[groupBy[j].Level].Card)
				}
				want += uint64(m) * w
			}
			if got := g.FragKey(id); got != want {
				t.Fatalf("case %d id %d: FragKey = %d, want %d", ci, id, got, want)
			}
		}
	}
}

// TestGrouperAlignment checks the aligned/per-row split: levels at or
// above the fragmentation level are aligned, finer levels and
// non-fragmentation dimensions bucket per row.
func TestGrouperAlignment(t *testing.T) {
	s := schema.Tiny()
	spec := frag.MustParse(s, "time::month, product::group")
	pd := s.DimIndex(schema.DimProduct)
	cd := s.DimIndex(schema.DimCustomer)
	code := s.Dims[pd].LevelIndex(schema.LvlCode)
	store := s.Dims[cd].LevelIndex(schema.LvlStore)

	g, err := NewGrouper(s, spec, []frag.LevelRef{{Dim: pd, Level: code}})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.PerRow()) != 1 {
		t.Fatalf("finer level should fall back per row: perRow=%d", len(g.PerRow()))
	}
	g, err = NewGrouper(s, spec, []frag.LevelRef{{Dim: cd, Level: store}})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.PerRow()) == 0 {
		t.Fatal("non-fragmentation dimension should fall back per row")
	}
	// Without a spec (the oracle's view), everything buckets per row.
	g, err = NewGrouper(s, nil, []frag.LevelRef{{Dim: pd, Level: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.PerRow()) == 0 {
		t.Fatal("spec-free grouper should not be aligned")
	}
}

// TestNewGrouperAllocatesTwice pins NewGrouper at two allocations, the
// Grouper and its levels, for aligned, per-row, mixed and spec-free
// GroupBys (it used to make four for a one-level GroupBy).
func TestNewGrouperAllocatesTwice(t *testing.T) {
	s := schema.Tiny()
	spec := frag.MustParse(s, "time::month, product::group")
	for _, text := range []string{
		"group by time::month",   // aligned
		"group by product::code", // per row
		"group by customer::store, product::group",
		"group by time::quarter, product::code, customer::store, time::month",
	} {
		q, err := frag.ParseQuery(s, text)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range []*frag.Spec{spec, nil} {
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := NewGrouper(s, sp, q.GroupBy); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Errorf("%q (spec %v): NewGrouper made %.0f allocations, want at most 2", text, sp, allocs)
			}
		}
	}
}

// TestGroupedMergeOrderIndependent checks that merging partial group maps
// in any order produces the same content, and that Rows imposes the
// deterministic lexicographic order.
func TestGroupedMergeOrderIndependent(t *testing.T) {
	s := schema.Tiny()
	pd := s.DimIndex(schema.DimProduct)
	td := s.DimIndex(schema.DimTime)
	g, err := NewGrouper(s, nil, []frag.LevelRef{{Dim: pd, Level: 1}, {Dim: td, Level: 0}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	parts := make([]Grouped, 8)
	for i := range parts {
		for j := 0; j < 20; j++ {
			key := uint64(rng.Intn(8))
			parts[i].AddRow(key, int64(rng.Intn(100)), int64(rng.Intn(100)), int64(rng.Intn(100)))
		}
	}
	// Accumulators merged in either order, and their runs merged pairwise
	// in either order, publish the same rows.
	merge := func(order []int) ([]Row, []Row) {
		var acc Grouped
		var run []Group
		for _, i := range order {
			acc.Merge(&parts[i])
			run = MergeRuns(run, parts[i].Run())
		}
		return g.Rows(acc.Run()), g.Rows(run)
	}
	fwd, fwdRuns := merge([]int{0, 1, 2, 3, 4, 5, 6, 7})
	rev, revRuns := merge([]int{7, 6, 5, 4, 3, 2, 1, 0})
	if !reflect.DeepEqual(fwd, rev) || !reflect.DeepEqual(fwd, fwdRuns) || !reflect.DeepEqual(fwd, revRuns) {
		t.Fatal("merge order changed grouped result")
	}
	if !sort.SliceIsSorted(fwd, func(i, j int) bool {
		a, b := fwd[i].Members, fwd[j].Members
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	}) {
		t.Fatalf("rows not in lexicographic member order: %v", fwd)
	}
	for i, r := range fwd {
		if cap(r.Members) != len(r.Members) {
			t.Fatalf("row %d: Members %v has room for %d; a caller's append would write into row %d", i, r.Members, cap(r.Members), i+1)
		}
	}
}

// TestFragPartialZeroGroupSuppressed checks that an aligned fragment whose
// selection matched nothing contributes no group.
func TestFragPartialZeroGroupSuppressed(t *testing.T) {
	gr, err := NewGrouper(schema.Tiny(), nil, []frag.LevelRef{{Dim: 0, Level: 0}})
	if err != nil {
		t.Fatal(err)
	}
	var o Out[Stats]
	addTo(&o, gr, &Slot{Base: 3}, Stats{}, 0, SharedScanStats{})
	if len(o.g.m) != 0 {
		t.Fatalf("zero-count slot created %d groups", len(o.g.m))
	}
	addTo(&o, gr, &Slot{Base: 3, Agg: Aggregate{Count: 2, UnitsSold: 5}}, Stats{}, 0, SharedScanStats{})
	if len(o.g.m) != 1 || o.Part.Agg.Count != 2 {
		t.Fatalf("non-empty slot not merged: groups=%d total=%+v", len(o.g.m), o.Part.Agg)
	}
}

// TestNewGrouperErrors covers invalid refs and group-space overflow.
func TestNewGrouperErrors(t *testing.T) {
	s := schema.Tiny()
	if _, err := NewGrouper(s, nil, []frag.LevelRef{{Dim: 9, Level: 0}}); err == nil {
		t.Error("out-of-range dimension accepted")
	}
	if _, err := NewGrouper(s, nil, []frag.LevelRef{{Dim: 0, Level: 9}}); err == nil {
		t.Error("out-of-range level accepted")
	}
	huge := &schema.Star{
		Name: "huge",
		Dims: []schema.Dimension{
			{Name: "a", Levels: []schema.Level{{Name: "x", Card: 1 << 31}}},
			{Name: "b", Levels: []schema.Level{{Name: "y", Card: 1 << 31}}},
			{Name: "c", Levels: []schema.Level{{Name: "z", Card: 1 << 31}}},
		},
		Density: 1, TupleSize: 20, PageSize: 4096,
	}
	refs := []frag.LevelRef{{Dim: 0, Level: 0}, {Dim: 1, Level: 0}, {Dim: 2, Level: 0}}
	if _, err := NewGrouper(huge, nil, refs); err == nil {
		t.Error("2^93 group space accepted")
	}
	if g, err := NewGrouper(s, nil, nil); g != nil || err != nil {
		t.Errorf("empty GroupBy: got %v, %v", g, err)
	}
}
