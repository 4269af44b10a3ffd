// Package kernel is what the query backends share. Its types: the one
// Aggregate every executor accumulates into, the work Stats the
// in-memory engine reports, and the grouped-roll-up machinery (Grouper,
// Grouped, Row) that turns MDHF's hierarchy-aligned fragments into
// nearly-free GROUP BY execution — so a result produced by any backend
// is structurally, and after the deterministic Rows ordering
// byte-for-byte, comparable with every other. And its one driver,
// Shared (driver.go), for which a lone query is a batch of one: the
// paper's processing model (Section 4.3) around the one step in which
// the backends differ. It validates every member, derives its grouper,
// enumerates the relevant fragments a node owns, runs one task per
// fragment on the backend's scheduler — shape a Slot per member needing
// it, let the backend fold the fragment's base rows into them, fold the
// fragment's delta segments in seal order — and has each worker add the
// partials of the tasks it ran to outcomes of its own, the caller adding
// up the workers' and publishing each member's groups once, as a run
// (exec.ReduceShardedOn; the workers' outcomes are emptied, not dropped,
// for the next call). Which fragments meet on which worker depends on
// scheduling, and it does not matter: every merge here is an int64 sum
// per group key, a sum of counters or, for SharedScanStats.Batched, a
// maximum — all commutative and associative, overflow included — and a
// run is sorted by key, so a result is identical at any pool size, disk
// layout or admission mix. A backend hands it
// where its tasks run and whose scratch they borrow (Dispatch) and one
// function: bind a validated batch to its fragment fold.
package kernel

import (
	"cmp"
	"slices"
)

// Aggregate is a star query result: COUNT plus the three APB-1 measure
// sums. It is the single aggregate type shared by every backend (the
// engine and storage packages alias it).
type Aggregate struct {
	Count       int64
	UnitsSold   int64
	DollarSales int64
	Cost        int64
}

// Add folds another aggregate in. Addition is commutative and
// associative, so partial aggregates merge to the same result in any
// order — which the drivers rely on: a worker sums the fragments it
// happens to run.
func (a *Aggregate) Add(o Aggregate) {
	a.Count += o.Count
	a.UnitsSold += o.UnitsSold
	a.DollarSales += o.DollarSales
	a.Cost += o.Cost
}

// AddRow folds one fact row's measures in.
func (a *Aggregate) AddRow(unitsSold, dollarSales, cost int64) {
	a.Count++
	a.UnitsSold += unitsSold
	a.DollarSales += dollarSales
	a.Cost += cost
}

// Stats reports the work a query execution performed — used to assert the
// paper's confinement claims, not just result correctness. The in-memory
// engine aliases it as engine.Stats. The delta rows folded beside it are
// counted once, in Out.DeltaRows.
type Stats struct {
	// FragmentsProcessed is the number of fragments visited.
	FragmentsProcessed int
	// RowsScanned is the number of fact rows whose measures were read.
	RowsScanned int64
	// BitmapsRead is the number of bitmap(-fragment)s evaluated.
	BitmapsRead int64
}

// Add folds another execution's counters in.
func (s *Stats) Add(o Stats) {
	s.FragmentsProcessed += o.FragmentsProcessed
	s.RowsScanned += o.RowsScanned
	s.BitmapsRead += o.BitmapsRead
}

// Plus returns the sum of the two executions' counters.
func (s Stats) Plus(o Stats) Stats {
	s.Add(o)
	return s
}

// Group is one group's aggregate under its composed group key. A run —
// groups in ascending key order, each key once — is the one published
// shape of a group result: what FragPartial.Groups holds, what a cluster
// node ships and what Grouper.Rows reads.
type Group struct {
	Key uint64
	Agg Aggregate
}

// Grouped accumulates per-group aggregates keyed by a Grouper's composed
// mixed-radix group key: a worker's local phase of a grouped execution,
// kept with the call's partials and emptied, not dropped, between calls.
// The zero value is empty and ready; Run publishes it.
type Grouped struct {
	m map[uint64]Aggregate
}

// keptGroups bounds the map an emptied accumulator keeps: clearing a map
// costs its capacity, so one grown by a rare huge grouping is dropped.
const keptGroups = 1 << 12

// Add folds an aggregate into the group with the given key.
func (g *Grouped) Add(key uint64, a Aggregate) {
	if g.m == nil {
		g.m = make(map[uint64]Aggregate)
	}
	cur := g.m[key]
	cur.Add(a)
	g.m[key] = cur
}

// AddRow folds one fact row's measures into the group with the given key.
func (g *Grouped) AddRow(key uint64, unitsSold, dollarSales, cost int64) {
	g.Add(key, Aggregate{Count: 1, UnitsSold: unitsSold, DollarSales: dollarSales, Cost: cost})
}

// Merge folds another accumulator in. Per-key addition commutes, so the
// merged content is independent of merge order; ordering is imposed only
// by Run.
func (g *Grouped) Merge(o *Grouped) {
	for k, a := range o.m {
		g.Add(k, a)
	}
}

// Run returns the groups as a run in an exactly sized slice of its own
// (nil when there are none): nothing of it aliases the accumulator.
func (g *Grouped) Run() []Group {
	if len(g.m) == 0 {
		return nil
	}
	run := make([]Group, 0, len(g.m))
	for k, a := range g.m {
		run = append(run, Group{Key: k, Agg: a})
	}
	slices.SortFunc(run, func(a, b Group) int { return cmp.Compare(a.Key, b.Key) })
	return run
}

// reset empties the accumulator for its next call.
func (g *Grouped) reset() {
	if len(g.m) > keptGroups {
		g.m = nil
	}
	clear(g.m)
}

// MergeRuns returns the run of both runs' groups, a key in both summed;
// b itself when a is empty.
func MergeRuns(a, b []Group) []Group {
	if len(a) == 0 {
		return b
	}
	out := make([]Group, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch g := a[0]; {
		case g.Key < b[0].Key:
			out, a = append(out, g), a[1:]
		case g.Key > b[0].Key:
			out, b = append(out, b[0]), b[1:]
		default:
			g.Agg.Add(b[0].Agg)
			out, a, b = append(out, g), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// Row is one group of a grouped query result: the member index per
// GroupBy level (in GroupBy declaration order) plus the group's
// aggregate.
type Row struct {
	Members []int
	Agg     Aggregate
}

// Result is a query result: the grand total plus, when the query has a
// GROUP BY, the per-group rows in the deterministic Grouper.Rows order
// (ascending lexicographically in the GroupBy member tuple). The grand
// total always equals the sum of the group aggregates.
type Result struct {
	Aggregate
	Groups []Row
}

// FragPartial is a (possibly grouped) execution's un-flattened outcome:
// the grand total plus, for a grouped query, its groups as a run — what
// a cluster node ships, and what Grouper.Result flattens into rows.
type FragPartial struct {
	Agg    Aggregate
	Groups []Group
}
