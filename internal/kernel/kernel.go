// Package kernel is what the query backends share. Its types: the one
// Aggregate every executor accumulates into, the work Stats the
// in-memory engine reports, and the grouped-roll-up machinery (Grouper,
// Grouped, Row) that turns MDHF's hierarchy-aligned fragments into
// nearly-free GROUP BY execution — so a result produced by any backend
// is structurally, and after the deterministic Rows ordering
// byte-for-byte, comparable with every other. And its two drivers, Solo
// and Shared (driver.go): the paper's processing model (Section 4.3)
// around the one step in which the backends differ. Both validate,
// derive the grouper, enumerate the relevant fragments a node owns, run
// one task per fragment on the backend's scheduler — shape a Slot, let
// the backend fold the fragment's base rows into it, fold the fragment's
// delta segments in seal order — and have each worker add the partials
// of the tasks it ran to one outcome of its own, the caller adding up
// the workers' (exec.ReduceShardedOn). Which fragments meet on which
// worker depends on scheduling, and it does not matter: every merge here
// is an int64 sum per group key, a sum of counters or, for
// SharedScanStats.Batched, a maximum — all commutative and associative,
// overflow included — and Grouper.Rows sorts, so a result is identical
// at any pool size, disk layout or admission mix. A backend hands them
// where its tasks run and whose scratch they borrow (Dispatch) and one
// function: bind a validated query (batch) to its fragment fold.
package kernel

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
// engine aliases it as engine.Stats.
type Stats struct {
	// FragmentsProcessed is the number of fragments visited.
	FragmentsProcessed int
	// RowsScanned is the number of fact rows whose measures were read.
	RowsScanned int64
	// BitmapsRead is the number of bitmap(-fragment)s evaluated.
	BitmapsRead int64
	// DeltaRows is the number of appended (not yet compacted) rows
	// aggregated from delta segments.
	DeltaRows int64
}

// Add folds another execution's counters in.
func (s *Stats) Add(o Stats) {
	s.FragmentsProcessed += o.FragmentsProcessed
	s.RowsScanned += o.RowsScanned
	s.BitmapsRead += o.BitmapsRead
	s.DeltaRows += o.DeltaRows
}

// Plus returns the sum of the two executions' counters.
func (s Stats) Plus(o Stats) Stats {
	s.Add(o)
	return s
}

// WithDeltaRows returns the counters credited with n delta rows.
func (s Stats) WithDeltaRows(n int64) Stats {
	s.DeltaRows += n
	return s
}

// Grouped accumulates per-group aggregates keyed by a Grouper's composed
// mixed-radix group key. The map form is the merge-friendly intermediate;
// Grouper.Rows flattens it into the deterministic output order.
type Grouped struct {
	m map[uint64]Aggregate
}

// NewGrouped returns an empty group accumulator.
func NewGrouped() *Grouped { return &Grouped{m: make(map[uint64]Aggregate)} }

// Len returns the number of non-empty groups.
func (g *Grouped) Len() int { return len(g.m) }

// Add folds an aggregate into the group with the given key.
func (g *Grouped) Add(key uint64, a Aggregate) {
	cur := g.m[key]
	cur.Add(a)
	g.m[key] = cur
}

// AddRow folds one fact row's measures into the group with the given key.
func (g *Grouped) AddRow(key uint64, unitsSold, dollarSales, cost int64) {
	cur := g.m[key]
	cur.AddRow(unitsSold, dollarSales, cost)
	g.m[key] = cur
}

// ForEach calls fn for every non-empty group. Iteration order is
// unspecified (the map's); callers needing the deterministic order sort
// the keys themselves or go through Grouper.Rows.
func (g *Grouped) ForEach(fn func(key uint64, a Aggregate)) {
	for k, a := range g.m {
		fn(k, a)
	}
}

// Merge folds another accumulator in. Per-key addition commutes, so the
// merged content is independent of merge order; ordering is imposed only
// by Grouper.Rows.
func (g *Grouped) Merge(o *Grouped) {
	if o == nil {
		return
	}
	for k, a := range o.m {
		cur := g.m[k]
		cur.Add(a)
		g.m[k] = cur
	}
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

// FragPartial is one fragment's contribution to a (possibly grouped)
// execution. On the fragment-aligned fast path the whole fragment belongs
// to one group, so the partial is just the fragment total plus its
// constant key — no map is built at all; the per-row fallback carries the
// fragment's own small group map instead.
type FragPartial struct {
	Agg Aggregate
	// OneGroup marks the aligned fast path: the fragment total lands
	// entirely in the group with key Key.
	OneGroup bool
	Key      uint64
	// Groups holds the per-row fallback's fragment-local group partials
	// (nil otherwise).
	Groups *Grouped
}

// MergeInto folds the partial into a running total and group accumulator
// (g may be nil for ungrouped executions).
func (p FragPartial) MergeInto(total *Aggregate, g *Grouped) {
	total.Add(p.Agg)
	if g == nil {
		return
	}
	if p.OneGroup {
		// A group exists only if at least one row landed in it: an aligned
		// fragment whose selection matched nothing contributes no group.
		if p.Agg.Count != 0 {
			g.Add(p.Key, p.Agg)
		}
		return
	}
	g.Merge(p.Groups)
}
