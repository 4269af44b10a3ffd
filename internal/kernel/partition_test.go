package kernel

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/frag"
	"repro/internal/schema"
)

// TestPartitionIsAStableSortByFragment: the partition equals a stable
// sort of the row indices by Spec.IDOf — the columns gathered in that
// order, the distinct ids ascending and each one's row range — on Tiny
// and APB1Scaled(60) tables, under a fragmentation finer than the table
// (most fragments empty, so slots live in a map), under a one-fragment
// spec and over an empty table; and appending to one fragment's columns
// never writes into the next fragment's rows.
func TestPartitionIsAStableSortByFragment(t *testing.T) {
	tiny, apb := schema.Tiny(), schema.APB1Scaled(60)
	one := schema.Tiny() // a product level of one member: one fragment
	one.Dims[0].Levels = append([]schema.Level{{Name: "all", Card: 1}}, one.Dims[0].Levels...)
	empty := &data.Table{Star: tiny, Dims: make([][]int32, len(tiny.Dims))}
	for _, tc := range []struct {
		name string
		tab  *data.Table
		spec *frag.Spec
	}{
		{"tiny/month×group", data.MustGenerate(tiny, 3), frag.MustParse(tiny, "time::month, product::group")},
		{"tiny/store", data.MustGenerate(tiny, 4), frag.MustParse(tiny, "customer::store")},
		{"apb/month×group", data.MustGenerate(apb, 1), frag.MustParse(apb, "time::month, product::group")},
		{"apb/finer than the table", data.MustGenerate(apb, 2), frag.MustParse(apb, "product::code, customer::store, channel::channel, time::month")},
		{"one fragment", data.MustGenerate(one, 5), frag.MustNew(one, []frag.Attr{{Dim: 0, Level: 0}})},
		{"empty table", empty, frag.MustParse(tiny, "time::month, product::group")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab, spec := tc.tab, tc.spec
			n := tab.N()
			ids := make([]int64, n)
			order := make([]int, n)
			buf := make([]int, len(tab.Dims))
			for i := range ids {
				ids[i], order[i] = spec.IDOf(tab.LeafMembers(i, buf)), i
			}
			slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ids[a], ids[b]) })

			want := Partition{Cols: Columns{Dims: make([][]int32, len(tab.Dims)),
				Units: make([]int64, n), Dollars: make([]int64, n), Costs: make([]int64, n)}, Starts: []int{0}}
			for d := range want.Cols.Dims {
				want.Cols.Dims[d] = make([]int32, n)
			}
			for k, i := range order {
				for d := range tab.Dims {
					want.Cols.Dims[d][k] = tab.Dims[d][i]
				}
				want.Cols.Units[k], want.Cols.Dollars[k], want.Cols.Costs[k] = tab.UnitsSold[i], tab.DollarSales[i], tab.Cost[i]
				if k == 0 || ids[i] != ids[order[k-1]] {
					want.IDs = append(want.IDs, ids[i])
					want.Starts = append(want.Starts, k+1)
				} else {
					want.Starts[len(want.Starts)-1]++
				}
			}
			got := NewPartition(spec, tab)
			if len(got.IDs) == 0 && len(want.IDs) == 0 {
				got.IDs = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("partition of %d rows into %d fragments differs from the stable sort by IDOf (%d fragments)", n, len(got.IDs), len(want.IDs))
			}
			if tc.name == "apb/finer than the table" && (spec.NumFragments() <= int64(n) || int64(len(got.IDs)) > spec.NumFragments()/2) {
				t.Fatalf("%d of %d fragments hold the %d rows: not finer than the table", len(got.IDs), spec.NumFragments(), n)
			}

			for k := range got.IDs {
				f := got.Fragment(k)
				f.Units = append(f.Units, -1)
				f.Dollars = append(f.Dollars, -1)
				f.Costs = append(f.Costs, -1)
				for d := range f.Dims {
					f.Dims[d] = append(f.Dims[d], -1)
				}
			}
			if !reflect.DeepEqual(got.Cols, want.Cols) {
				t.Fatal("appending to a fragment's columns wrote into the partition")
			}
		})
	}
}
