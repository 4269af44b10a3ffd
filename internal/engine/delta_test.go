package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/schema"
)

// splitTable partitions a generated table into a base prefix and the
// remaining rows.
func splitTable(t *data.Table, n int) (*data.Table, *data.Table) {
	head := &data.Table{Star: t.Star, Dims: make([][]int32, len(t.Dims))}
	tail := &data.Table{Star: t.Star, Dims: make([][]int32, len(t.Dims))}
	for d := range t.Dims {
		head.Dims[d] = t.Dims[d][:n]
		tail.Dims[d] = t.Dims[d][n:]
	}
	head.UnitsSold, tail.UnitsSold = t.UnitsSold[:n], t.UnitsSold[n:]
	head.DollarSales, tail.DollarSales = t.DollarSales[:n], t.DollarSales[n:]
	head.Cost, tail.Cost = t.Cost[:n], t.Cost[n:]
	return head, tail
}

// deltasOf routes every row of a table into sealed delta segments.
func deltasOf(t *testing.T, spec *frag.Spec, ix *frag.DeltaIndex, tab *data.Table, batches int) *frag.DeltaSet {
	t.Helper()
	var set *frag.DeltaSet
	seq := uint64(0)
	per := (tab.N() + batches - 1) / batches
	buf := make([]int, len(tab.Dims))
	leaves := make([]int32, len(tab.Dims))
	for lo := 0; lo < tab.N(); lo += per {
		hi := lo + per
		if hi > tab.N() {
			hi = tab.N()
		}
		builders := make(map[int64]*frag.SegmentBuilder)
		for i := lo; i < hi; i++ {
			id := spec.ID(spec.CoordOf(tab.LeafMembers(i, buf)))
			sb, ok := builders[id]
			if !ok {
				sb = ix.NewSegment(id)
				builders[id] = sb
			}
			for d := range leaves {
				leaves[d] = tab.Dims[d][i]
			}
			sb.Add(leaves, tab.UnitsSold[i], tab.DollarSales[i], tab.Cost[i])
		}
		for _, sb := range builders {
			seq++
			set = set.With(sb.Seal(seq))
		}
	}
	return set
}

// TestExecuteGroupedDeltasEquivalence asserts that an engine over a base
// prefix plus delta segments for the remaining rows produces results
// byte-identical to an engine built from the full table — grouped and
// ungrouped.
func TestExecuteGroupedDeltasEquivalence(t *testing.T) {
	star := schema.Tiny()
	full := data.MustGenerate(star, 42)
	spec := frag.MustParse(star, "time::month, product::group")
	icfg := frag.APB1Indexes(star)
	base, extra := splitTable(full, full.N()*2/3)
	ix, err := frag.NewDeltaIndex(spec, icfg)
	if err != nil {
		t.Fatal(err)
	}
	set := deltasOf(t, spec, ix, extra, 3)
	sched := exec.NewScheduler(2)
	defer sched.Close()
	queries := []string{
		"time::month=1",
		"product::code=3",
		"time::quarter=1",
		"time::month=2, product::code=5",
		"customer::store=2",
		"",
		"time::month=1 group by product::group",
		"customer::retailer=1 group by time::month, product::class",
		"group by time::quarter, customer::store",
	}
	eBase, err := Build(base, spec, icfg)
	if err != nil {
		t.Fatal(err)
	}
	eFull, err := Build(full, spec, icfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range queries {
		q, err := frag.ParseQuery(star, text)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := eFull.ExecuteGroupedDeltas(context.Background(), sched, q, kernel.Deltas{})
		if err != nil {
			t.Fatal(err)
		}
		o, err := kernel.Lone(eBase.Shared(context.Background(), sched, []frag.Query{q}, kernel.Deltas{Ix: ix, Set: set}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got := o.Gr.Result(o.Part); !reflect.DeepEqual(got, want) {
			t.Errorf("query %q: base+delta %+v != full %+v", text, got, want)
		}
		if q.Preds == nil && o.DeltaRows != int64(extra.N()) {
			t.Errorf("DeltaRows = %d, want %d", o.DeltaRows, extra.N())
		}
	}
}

// filterTable keeps the rows whose fragment keep selects.
func filterTable(t *data.Table, spec *frag.Spec, keep func(id int64) bool) *data.Table {
	out := &data.Table{Star: t.Star, Dims: make([][]int32, len(t.Dims))}
	buf := make([]int, len(t.Dims))
	for i := 0; i < t.N(); i++ {
		if !keep(spec.IDOf(t.LeafMembers(i, buf))) {
			continue
		}
		for d := range t.Dims {
			out.Dims[d] = append(out.Dims[d], t.Dims[d][i])
		}
		out.UnitsSold = append(out.UnitsSold, t.UnitsSold[i])
		out.DollarSales = append(out.DollarSales, t.DollarSales[i])
		out.Cost = append(out.Cost, t.Cost[i])
	}
	return out
}

// concatTables appends b's rows to a's.
func concatTables(a, b *data.Table) *data.Table {
	out := &data.Table{Star: a.Star, Dims: make([][]int32, len(a.Dims))}
	for d := range a.Dims {
		out.Dims[d] = append(append([]int32(nil), a.Dims[d]...), b.Dims[d]...)
	}
	out.UnitsSold = append(append([]int64(nil), a.UnitsSold...), b.UnitsSold...)
	out.DollarSales = append(append([]int64(nil), a.DollarSales...), b.DollarSales...)
	out.Cost = append(append([]int64(nil), a.Cost...), b.Cost...)
	return out
}

// TestCompactSharesUntouchedFragments: folding a delta set that touches
// fragments 1 and 5 (rows of both in the base) and 6 (none in the base)
// gives, fragment for fragment, the engine Build gives for the base rows
// followed by the delta rows in arrival order — twice over, the second
// fold working on the first one's output — while every other fragment is
// the old engine's, by pointer.
func TestCompactSharesUntouchedFragments(t *testing.T) {
	star := schema.Tiny()
	full := data.MustGenerate(star, 42)
	spec := frag.MustParse(star, "time::month, product::group")
	icfg := frag.APB1Indexes(star)
	ix, err := frag.NewDeltaIndex(spec, icfg)
	if err != nil {
		t.Fatal(err)
	}
	head, tail := splitTable(full, full.N()/2)
	base := filterTable(head, spec, func(id int64) bool { return id != 6 })
	hot := func(id int64) bool { return id == 1 || id == 5 || id == 6 }
	first, second := splitTable(filterTable(tail, spec, hot), 7)
	e, err := Build(base, spec, icfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := base
	for round, extra := range []*data.Table{first, second} {
		set := deltasOf(t, spec, ix, extra, 2)
		ne := e.Compact(set)
		rows = concatTables(rows, extra)
		want, err := Build(rows, spec, icfg)
		if err != nil {
			t.Fatal(err)
		}
		// The scratch list outlives the epoch: the new engine keeps the
		// old one's, and nothing else tells it from want.
		if ne.scratch != e.scratch {
			t.Fatalf("round %d: the compacted engine builds a scratch list of its own", round)
		}
		ne.scratch = want.scratch
		if !reflect.DeepEqual(ne, want) {
			t.Fatalf("round %d: compacted engine differs from the engine built over the merged rows", round)
		}
		for id, f := range e.frags {
			if shared := ne.frags[id] == f; shared == (len(set.Of(id)) > 0) {
				t.Errorf("round %d: fragment %d shared = %v", round, id, shared)
			}
		}
		e = ne
	}
	if e.frags[6] == nil || len(e.frags) != 8 {
		t.Fatalf("%d fragments after folding, fragment 6 present = %v", len(e.frags), e.frags[6] != nil)
	}
}
