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

// AddDelta folds every delta segment of fragment id into the fragment's
// partial, in seal order. The query is compiled once per call into sc's
// leaf ranges (frag.DeltaIndex.Ranges), and each row inside them — the
// rows the base bitmap plan selects over the same leaves — is aggregated
// into p.Agg and, on the per-row grouping fallback, into p.Groups with
// the same composed key arithmetic as base rows. Because per-key sums
// commute, folding deltas inside the fragment's own task leaves the final
// result byte-identical to a warehouse rebuilt from scratch with the same
// rows.
//
// It returns the number of delta rows aggregated.
func AddDelta(d Deltas, id int64, q frag.Query, p *FragPartial, base uint64, perRow []RowLevel, sc *frag.DeltaScratch) (int64, error) {
	if d.Empty() {
		return 0, nil
	}
	segs := d.Set.Of(id)
	if len(segs) == 0 {
		return 0, nil
	}
	ranges := d.Ix.Ranges(q, sc)
	grouped := p.Groups != nil && len(perRow) > 0
	var rows int64
	for _, seg := range segs {
		units, dollars, costs, dims := seg.Units(), seg.Dollars(), seg.Costs(), seg.Dims()
		for i := range seg.Rows() {
			if !seg.Selects(ranges, i) {
				continue
			}
			p.Agg.AddRow(units[i], dollars[i], costs[i])
			if grouped {
				key := base
				for _, rl := range perRow {
					key += uint64(int64(dims[rl.Dim][i])/rl.Div) * rl.Weight
				}
				p.Groups.AddRow(key, units[i], dollars[i], costs[i])
			}
			rows++
		}
	}
	return rows, nil
}
