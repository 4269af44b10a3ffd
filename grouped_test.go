package mdhf

// Grouped roll-up equivalence and property tests: every backend — the
// in-memory engine, the on-disk executor, plain and compressed, and the
// declustered executor — must produce byte-identical grouped results
// (deterministic group order) at every worker and disk count, all checked
// against the brute-force ScanGroupedAggregate oracle, with the roll-up
// invariants on top: summing all groups equals the ungrouped aggregate,
// and grouping at a finer hierarchy level re-aggregated to a coarser one
// equals grouping at the coarser level directly. Run under -race in CI.

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// groupedBackends is the backend × disks matrix of the acceptance
// criteria; workers vary per test.
func groupedBackends() []struct {
	name string
	opts []Option
} {
	return []struct {
		name string
		opts []Option
	}{
		{"in-memory", nil},
		{"on-disk", []Option{WithOnDisk("")}},
		{"on-disk/compressed", []Option{WithOnDisk(""), WithCompression()}},
		{"declustered/1", []Option{WithDisks(1, RoundRobin)}},
		{"declustered/8", []Option{WithDisks(8, RoundRobin)}},
		{"declustered/8/gap/compressed", []Option{WithDisks(8, GapRoundRobin), WithCompression()}},
	}
}

// groupedQueries returns named queries covering the aligned fast path
// (GroupBy at/above the fragmentation levels), the per-row fallback
// (finer levels and non-fragmentation dimensions), mixed cases, and a
// selection-free roll-up, under "time::month, product::group" on Tiny.
func groupedQueries(t testing.TB, star *Star) map[string]Query {
	t.Helper()
	parse := func(text string) Query {
		q, err := ParseQuery(star, text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		return q
	}
	return map[string]Query{
		"rollup-aligned-month":      parse("group by time::month"),
		"rollup-aligned-2d":         parse("group by time::quarter, product::group"),
		"q1-aligned":                parse("time::month=1 group by product::group"),
		"q3-aligned":                parse("time::quarter=1 group by time::month"),
		"q2-perrow-code":            parse("product::code=3 group by product::code"),
		"perrow-store":              parse("time::month=2 group by customer::store"),
		"perrow-mixed":              parse("group by time::month, customer::retailer"),
		"perrow-finer-class":        parse("customer::store=2 group by product::class"),
		"unsupported-grouped":       parse("customer::store=1 group by time::quarter"),
		"empty-selection-ungrouped": parse("group by product::code, time::month"),
	}
}

// TestGroupedBackendsMatchOracle executes every grouped query on every
// backend at workers {1,4} and compares the full Result — total, group
// membership and group order — against the scan oracle byte for byte.
func TestGroupedBackendsMatchOracle(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	queries := groupedQueries(t, star)

	oracle := map[string]Result{}
	for name, q := range queries {
		res, err := ScanGroupedAggregate(tab, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) == 0 {
			t.Fatalf("%s: oracle produced no groups (bad test query)", name)
		}
		oracle[name] = res
	}

	for _, bk := range groupedBackends() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", bk.name, workers), func(t *testing.T) {
				w, err := Open(ctx, Config{
					Star:          star,
					Fragmentation: "time::month, product::group",
					Table:         tab,
				}, append([]Option{WithWorkers(workers)}, bk.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				for name, q := range queries {
					res, _, err := w.Query(q).Execute(ctx)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := oracle[name]
					if res.Aggregate != want.Aggregate {
						t.Fatalf("%s: total %+v, oracle %+v", name, res.Aggregate, want.Aggregate)
					}
					if !reflect.DeepEqual(res.Groups, want.Groups) {
						t.Fatalf("%s: groups diverge from oracle\ngot  %v\nwant %v", name, res.Groups, want.Groups)
					}
					var sum Aggregate
					for _, row := range res.Groups {
						if row.Agg.Count == 0 {
							t.Fatalf("%s: empty group %v emitted", name, row.Members)
						}
						sum.Add(row.Agg)
					}
					if sum != res.Aggregate {
						t.Fatalf("%s: group sum %+v != total %+v", name, sum, res.Aggregate)
					}
				}
			})
		}
	}
}

// reaggregate rolls a single-level grouped result up to a coarser level
// of the same dimension (fan = FanOutBetween(coarse, fine)).
func reaggregate(rows []GroupRow, fan int) []GroupRow {
	m := map[int]Aggregate{}
	for _, r := range rows {
		cur := m[r.Members[0]/fan]
		cur.Add(r.Agg)
		m[r.Members[0]/fan] = cur
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]GroupRow, len(keys))
	for i, k := range keys {
		out[i] = GroupRow{Members: []int{k}, Agg: m[k]}
	}
	return out
}

// TestGroupedRollupInvariant checks, on every backend at workers {1,4},
// that grouping at a finer hierarchy level and re-aggregating equals
// grouping at the coarser level directly — on both an aligned pair
// (month → quarter) and a per-row fallback pair (code → group) — and
// that the ungrouped Execute total equals the sum of every grouping's
// rows.
func TestGroupedRollupInvariant(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	pd := star.DimIndex("product")
	td := star.DimIndex("time")
	fanCode := star.Dims[pd].FanOutBetween(star.Dims[pd].LevelIndex("group"), star.Dims[pd].LevelIndex("code"))
	fanMonth := star.Dims[td].FanOutBetween(star.Dims[td].LevelIndex("quarter"), star.Dims[td].LevelIndex("month"))

	pairs := []struct {
		name         string
		fine, coarse string
		fan          int
	}{
		{"aligned-month-to-quarter", "time::month=1 group by time::month", "time::month=1 group by time::quarter", fanMonth},
		{"perrow-code-to-group", "time::quarter=0 group by product::code", "time::quarter=0 group by product::group", fanCode},
	}

	for _, bk := range groupedBackends() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", bk.name, workers), func(t *testing.T) {
				w, err := Open(ctx, Config{
					Star:          star,
					Fragmentation: "time::month, product::group",
					Table:         tab,
				}, append([]Option{WithWorkers(workers)}, bk.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				run := func(text string) Result {
					q, err := w.QueryText(text)
					if err != nil {
						t.Fatal(err)
					}
					res, _, err := q.Execute(ctx)
					if err != nil {
						t.Fatalf("%s: %v", text, err)
					}
					return res
				}
				for _, pair := range pairs {
					fine := run(pair.fine)
					coarse := run(pair.coarse)
					if got := reaggregate(fine.Groups, pair.fan); !reflect.DeepEqual(got, coarse.Groups) {
						t.Fatalf("%s: re-aggregated fine grouping diverges\ngot  %v\nwant %v", pair.name, got, coarse.Groups)
					}
					if fine.Aggregate != coarse.Aggregate {
						t.Fatalf("%s: totals diverge across grouping levels: %+v vs %+v", pair.name, fine.Aggregate, coarse.Aggregate)
					}
					// Grouping must not change the grand total.
					sel := pair.fine[:strings.Index(pair.fine, " group by")]
					if ungrouped := run(sel); ungrouped.Aggregate != fine.Aggregate {
						t.Fatalf("%s: grouped total %+v != ungrouped %+v", pair.name, fine.Aggregate, ungrouped.Aggregate)
					}
				}
			})
		}
	}
}
