package kernel

import "repro/internal/frag"

// Deltas bundles a pinned delta snapshot with the index that interprets
// it — what an admitted query execution carries alongside its base
// backend. The zero value (or a nil/empty set) means no deltas.
type Deltas struct {
	Ix  *frag.DeltaIndex
	Set *frag.DeltaSet
}

// Empty reports whether there is nothing to fold.
func (d Deltas) Empty() bool { return d.Ix == nil || d.Set.Rows() == 0 }

// Has reports whether fragment id has delta segments to fold.
func (d Deltas) Has(id int64) bool { return !d.Empty() && len(d.Set.Of(id)) > 0 }

// ranges compiles a validated query for the delta fold, once per query,
// in sc: nil when there is nothing to fold.
func (d Deltas) ranges(q frag.Query, sc *frag.DeltaScratch) []frag.LeafRange {
	if d.Empty() {
		return nil
	}
	return d.Ix.Ranges(q, sc)
}

// AddDelta folds every delta segment of fragment id into the fragment's
// partial in seal order — addDeltas, with the query compiled into sc —
// and returns the number of delta rows aggregated. With per-row levels
// the rows' groups, keyed from base, are merged into the partial's run.
func AddDelta(d Deltas, id int64, q frag.Query, p *FragPartial, base uint64, perRow []RowLevel, sc *frag.DeltaScratch) (int64, error) {
	if d.Empty() {
		return 0, nil
	}
	s := Slot{Base: base, PerRow: perRow, Agg: p.Agg}
	var g Grouped
	if len(perRow) > 0 {
		s.Groups = &g
	}
	n := s.addDeltas(d.Set, id, d.Ix.Ranges(q, sc))
	p.Agg, p.Groups = s.Agg, MergeRuns(p.Groups, g.Run())
	return n, nil
}

// addDeltas folds into the slot, in seal order, the rows of fragment id's
// delta segments in set (nil: none) inside the query's leaf ranges —
// those the base bitmap plan selects over the same leaves — and returns
// how many. Per-key sums commute, so the result is byte-identical to a
// warehouse rebuilt from scratch with the same rows.
func (s *Slot) addDeltas(set *frag.DeltaSet, id int64, ranges []frag.LeafRange) int64 {
	before := s.Rows
	for _, seg := range set.Of(id) {
		cols := Columns{Dims: seg.Dims(), Units: seg.Units(), Dollars: seg.Dollars(), Costs: seg.Costs()}
		n := seg.Rows()
		if len(ranges) == 0 { // every row matches by confinement
			Fold(s, cols, 0, n, nil, 0)
			continue
		}
		var a Aggregate
		for base := 0; base < n; base += 64 { // a 64-row word of selection at a time
			var w uint64
			for b := range min(64, n-base) {
				if seg.Selects(ranges, base+b) {
					w |= 1 << b
				}
			}
			switch {
			case w == 0:
			case s.Groups == nil:
				a.Add(cols.sumWord(base, w, n-base >= 64))
			default:
				addRows(s, &cols, base, w)
			}
		}
		s.add(a)
	}
	return s.Rows - before
}
