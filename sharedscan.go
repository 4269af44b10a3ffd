package mdhf

import (
	"encoding/binary"
	"sort"

	"repro/internal/frag"
)

// observedQueryCap bounds the per-query-text mix map; executions beyond
// it still count in the totals but are not individually recorded.
const observedQueryCap = 512

// observedQuery is one recorded query of the observed mix.
type observedQuery struct {
	q     frag.Query
	text  string
	class QueryClass
	frags int64
	count int64
}

// appendKey appends q's structure — its predicates, then its GROUP BY,
// each in order — which is exactly the identity its canonical text has.
func appendKey(b []byte, q Query) []byte {
	b = binary.AppendUvarint(b, uint64(len(q.Preds)))
	for _, p := range q.Preds {
		b = binary.AppendUvarint(b, uint64(p.Dim))
		b = binary.AppendUvarint(b, uint64(p.Level))
		b = binary.AppendUvarint(b, uint64(p.Member))
	}
	for _, g := range q.GroupBy {
		b = binary.AppendUvarint(b, uint64(g.Dim))
		b = binary.AppendUvarint(b, uint64(g.Level))
	}
	return b
}

// ObservedQuery is one entry of the observed query mix (see
// Warehouse.QueryMix): a query actually executed against the
// warehouse, its classification and fragment-region size, and how often
// it ran.
type ObservedQuery struct {
	// Text is the query in canonical member-index notation.
	Text string
	// Class is the paper's Q1-Q4 confinement classification.
	Class QueryClass
	// Fragments is the size of the query's confinement region (its
	// relevant-fragment count).
	Fragments int64
	// Count is how many successful executions the query had.
	Count int64
}

// QueryMixStats is the observed query mix recorded over every successful
// Execute — the per-class and per-fragment-region view of what the
// warehouse actually serves, and the empirical input AdviseObserved
// feeds back into the fragmentation advisor.
type QueryMixStats struct {
	// Total counts every successful execution (cache hits included —
	// the mix describes demand, not backend work).
	Total int64
	// ByClass breaks Total down by confinement classification.
	ByClass map[QueryClass]int64
	// Queries lists the distinct recorded queries, most-executed first
	// (ties in canonical-text order).
	Queries []ObservedQuery
	// Dropped counts executions of distinct queries beyond the recording
	// capacity; they are in Total and ByClass but not in Queries.
	Dropped int64
}

// recordObserved folds one successful execution into the observed mix.
// Only a query recorded for the first time is formatted.
func (w *Warehouse) recordObserved(q Query) {
	if w.spec == nil {
		return
	}
	class := w.spec.Classify(q)
	var buf [64]byte
	key := appendKey(buf[:0], q)
	w.mixMu.Lock()
	defer w.mixMu.Unlock()
	w.mixTotal++
	if w.mixByClass == nil {
		w.mixByClass = make(map[QueryClass]int64)
	}
	w.mixByClass[class]++
	o := w.mix[string(key)]
	if o == nil {
		if len(w.mix) >= observedQueryCap {
			w.mixDropped++
			return
		}
		if w.mix == nil {
			w.mix = make(map[string]*observedQuery)
		}
		o = &observedQuery{q: q, text: frag.Format(w.star, q), class: class, frags: w.spec.Relevant(q).Count()}
		w.mix[string(key)] = o
	}
	o.count++
}

// QueryMix snapshots the observed query mix over every successful
// Execute — per-class counts and the most-executed queries with their
// fragment regions; AdviseObserved feeds it back into the advisor. It
// copies and sorts the recorded queries, so it is no per-request poll
// (ServingStats is). On a multi-node warehouse it is the only count of
// served queries: see NodeStats.
func (w *Warehouse) QueryMix() QueryMixStats {
	w.mixMu.Lock()
	defer w.mixMu.Unlock()
	st := QueryMixStats{Total: w.mixTotal, Dropped: w.mixDropped}
	if len(w.mixByClass) > 0 {
		st.ByClass = make(map[QueryClass]int64, len(w.mixByClass))
		for c, n := range w.mixByClass {
			st.ByClass[c] = n
		}
	}
	st.Queries = make([]ObservedQuery, 0, len(w.mix))
	for _, o := range w.mix {
		st.Queries = append(st.Queries, ObservedQuery{Text: o.text, Class: o.class, Fragments: o.frags, Count: o.count})
	}
	sort.Slice(st.Queries, func(i, j int) bool {
		if st.Queries[i].Count != st.Queries[j].Count {
			return st.Queries[i].Count > st.Queries[j].Count
		}
		return st.Queries[i].Text < st.Queries[j].Text
	})
	return st
}

// ObservedMix returns the recorded query mix as a weighted mix for the
// advisor, weights normalised over the recorded executions (nil before
// anything ran). Unlike a hand-written mix this is what the warehouse
// actually served, so re-advising with it closes the design loop:
// fragment for the workload you have, not the one you guessed.
func (w *Warehouse) ObservedMix() []WeightedQuery {
	w.mixMu.Lock()
	defer w.mixMu.Unlock()
	if len(w.mix) == 0 {
		return nil
	}
	recorded := make([]*observedQuery, 0, len(w.mix))
	var total int64
	for _, o := range w.mix {
		recorded = append(recorded, o)
		total += o.count
	}
	sort.Slice(recorded, func(i, j int) bool { return recorded[i].text < recorded[j].text })
	mix := make([]WeightedQuery, len(recorded))
	for i, o := range recorded {
		mix[i] = WeightedQuery{Name: o.text, Query: o.q, Weight: float64(o.count) / float64(total)}
	}
	return mix
}

// AdviseObserved ranks the admissible fragmentations of the warehouse's
// schema over the *observed* query mix — the queries Execute actually
// served, weighted by how often they ran — instead of a hand-written
// one. It returns nil before any query has executed.
func (w *Warehouse) AdviseObserved(th Thresholds) []Ranked {
	mix := w.ObservedMix()
	if len(mix) == 0 {
		return nil
	}
	return w.Advise(mix, th)
}

// AdviseDisksObserved ranks disk counts and placement schemes over the
// observed query mix (see AdviseDisks); nil before any query has
// executed or on an advisory-only warehouse.
func (w *Warehouse) AdviseDisksObserved(dp DiskParams, diskCounts []int) []DiskRanked {
	mix := w.ObservedMix()
	if len(mix) == 0 || w.spec == nil {
		return nil
	}
	return AdviseDisks(w.spec, w.icfg, mix, w.opt.params, dp, diskCounts)
}
