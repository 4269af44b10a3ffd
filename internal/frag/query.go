package frag

import (
	"fmt"
	"strings"

	"repro/internal/schema"
)

// Pred is a point predicate on one hierarchy level of one dimension:
// "dimension Dim at level Level equals member Member" (e.g. month = 5).
// The paper's star queries are conjunctions of such predicates.
type Pred struct {
	Dim    int
	Level  int
	Member int
}

// LevelRef names one hierarchy level of one dimension — a GROUP BY item.
type LevelRef struct {
	Dim   int
	Level int
}

// Query is a star query: a conjunction of point predicates on distinct
// dimensions (the selection), optionally grouped by one or more hierarchy
// levels. Aggregation is over the measures of all matching fact rows; with
// GroupBy set, a per-group aggregate is produced for every member tuple of
// the GroupBy levels that receives at least one row, alongside the grand
// total.
//
// GROUP BY is the workload MDHF fragments were designed for: when every
// GroupBy level is at or above the fragmentation level of its dimension,
// each fragment belongs to exactly one group and grouping costs zero
// per-row work (see internal/kernel.Grouper).
type Query struct {
	Preds   []Pred
	GroupBy []LevelRef
}

// SplitGroupBy separates a query text's selection from a trailing GROUP
// BY clause (case-insensitive), reporting whether the clause is present.
// Shared by every notation's parser. The scan is byte-wise (EqualFold on
// the ASCII keyword), so arbitrary — even invalid-UTF-8 — input never
// shifts the split offsets; it skips quoted member-name literals and
// requires the keyword to stand at token boundaries, so a name that
// happens to contain the phrase never splits the query.
func SplitGroupBy(text string) (sel, gb string, found bool) {
	const kw = "group by"
	var quote byte
	for i := 0; i < len(text); i++ {
		c := text[i]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		if c == '\'' || c == '"' {
			quote = c
			continue
		}
		if i+len(kw) > len(text) || !strings.EqualFold(text[i:i+len(kw)], kw) {
			continue
		}
		boundedLeft := i == 0 || text[i-1] == ' ' || text[i-1] == '\t' || text[i-1] == ','
		end := i + len(kw)
		boundedRight := end == len(text) || text[end] == ' ' || text[end] == '\t'
		if boundedLeft && boundedRight {
			return text[:i], text[end:], true
		}
	}
	return text, "", false
}

// parseLevelRef resolves "dim::level" against the schema.
func parseLevelRef(star *schema.Star, part string) (LevelRef, error) {
	dl := strings.SplitN(part, "::", 2)
	if len(dl) != 2 {
		return LevelRef{}, fmt.Errorf("frag: malformed attribute %q (want dim::level)", part)
	}
	di := star.DimIndex(strings.TrimSpace(dl[0]))
	if di < 0 {
		return LevelRef{}, fmt.Errorf("frag: unknown dimension %q", dl[0])
	}
	li := star.Dims[di].LevelIndex(strings.TrimSpace(dl[1]))
	if li < 0 {
		return LevelRef{}, fmt.Errorf("frag: unknown level %q", dl[1])
	}
	return LevelRef{Dim: di, Level: li}, nil
}

// ParseQuery builds a query from "dim::level=member, ..." notation with an
// optional trailing "group by dim::level, ..." clause, e.g.
// "customer::store=7 group by time::month, product::family".
func ParseQuery(star *schema.Star, text string) (Query, error) {
	var q Query
	sel, gb, hasGB := SplitGroupBy(text)
	for _, part := range strings.Split(sel, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.SplitN(part, "=", 2)
		if len(eq) != 2 {
			return Query{}, fmt.Errorf("frag: malformed predicate %q", part)
		}
		ref, err := parseLevelRef(star, eq[0])
		if err != nil {
			return Query{}, err
		}
		var m int
		if _, err := fmt.Sscanf(strings.TrimSpace(eq[1]), "%d", &m); err != nil {
			return Query{}, fmt.Errorf("frag: bad member in %q: %v", part, err)
		}
		if m < 0 || m >= star.Dims[ref.Dim].Levels[ref.Level].Card {
			return Query{}, fmt.Errorf("frag: member %d out of domain of %s", m, strings.TrimSpace(eq[0]))
		}
		q.Preds = append(q.Preds, Pred{Dim: ref.Dim, Level: ref.Level, Member: m})
	}
	if hasGB {
		if strings.TrimSpace(gb) == "" {
			return Query{}, fmt.Errorf("frag: empty GROUP BY clause")
		}
		for _, part := range strings.Split(gb, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				return Query{}, fmt.Errorf("frag: empty GROUP BY item")
			}
			ref, err := parseLevelRef(star, part)
			if err != nil {
				return Query{}, err
			}
			q.GroupBy = append(q.GroupBy, ref)
		}
	}
	return q, q.Validate(star)
}

// Format renders the query in the ParseQuery notation; Format then
// ParseQuery round-trips exactly.
func Format(star *schema.Star, q Query) string {
	var b strings.Builder
	for i, p := range q.Preds {
		if i > 0 {
			b.WriteString(", ")
		}
		d := &star.Dims[p.Dim]
		fmt.Fprintf(&b, "%s::%s=%d", d.Name, d.Levels[p.Level].Name, p.Member)
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, ref := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			d := &star.Dims[ref.Dim]
			fmt.Fprintf(&b, "%s::%s", d.Name, d.Levels[ref.Level].Name)
		}
	}
	return b.String()
}

// Validate checks that predicates are in-range and on distinct dimensions
// and that GroupBy levels are in-range, distinct, and span a group space
// small enough to key (< 2^62 member combinations).
func (q Query) Validate(star *schema.Star) error {
	seen := make(map[int]bool, len(q.Preds))
	for _, p := range q.Preds {
		if p.Dim < 0 || p.Dim >= len(star.Dims) {
			return fmt.Errorf("frag: predicate dimension %d out of range", p.Dim)
		}
		d := &star.Dims[p.Dim]
		if p.Level < 0 || p.Level >= d.Depth() {
			return fmt.Errorf("frag: predicate level %d out of range for %s", p.Level, d.Name)
		}
		if p.Member < 0 || p.Member >= d.Levels[p.Level].Card {
			return fmt.Errorf("frag: predicate member %d out of domain of %s.%s", p.Member, d.Name, d.Levels[p.Level].Name)
		}
		if seen[p.Dim] {
			return fmt.Errorf("frag: dimension %s referenced twice in query", d.Name)
		}
		seen[p.Dim] = true
	}
	space := int64(1)
	seenGB := make(map[LevelRef]bool, len(q.GroupBy))
	for _, ref := range q.GroupBy {
		if ref.Dim < 0 || ref.Dim >= len(star.Dims) {
			return fmt.Errorf("frag: GroupBy dimension %d out of range", ref.Dim)
		}
		d := &star.Dims[ref.Dim]
		if ref.Level < 0 || ref.Level >= d.Depth() {
			return fmt.Errorf("frag: GroupBy level %d out of range for %s", ref.Level, d.Name)
		}
		if seenGB[ref] {
			return fmt.Errorf("frag: GroupBy level %s.%s listed twice", d.Name, d.Levels[ref.Level].Name)
		}
		seenGB[ref] = true
		card := int64(d.Levels[ref.Level].Card)
		if space > (1<<62)/card {
			return fmt.Errorf("frag: GroupBy space exceeds 2^62 groups")
		}
		space *= card
	}
	return nil
}

// PredOnDim returns the predicate on dimension d, if any.
func (q Query) PredOnDim(d int) (Pred, bool) {
	for _, p := range q.Preds {
		if p.Dim == d {
			return p, true
		}
	}
	return Pred{}, false
}

// Selectivity returns the fraction of all fact rows matching the query
// under the uniformity assumption of the paper.
func (q Query) Selectivity(star *schema.Star) float64 {
	sel := 1.0
	for _, p := range q.Preds {
		sel /= float64(star.Dims[p.Dim].Levels[p.Level].Card)
	}
	return sel
}

// Hits returns the expected number of matching fact rows.
func (q Query) Hits(star *schema.Star) float64 {
	return q.Selectivity(star) * float64(star.N())
}

// QueryClass is the paper's classification of star queries with respect to
// a fragmentation (Section 4.2).
type QueryClass int

const (
	// Unsupported: the query references no fragmentation dimension; it
	// cannot be confined to a fragment subset.
	Unsupported QueryClass = iota
	// Q1: predicates on fragmentation attributes themselves.
	Q1
	// Q2: predicates on lower-level (finer) attributes of fragmentation
	// dimensions.
	Q2
	// Q3: predicates on higher-level (coarser) attributes of fragmentation
	// dimensions.
	Q3
	// Q4: mixed — at least one finer and one coarser predicate across the
	// fragmentation dimensions.
	Q4
)

func (c QueryClass) String() string {
	switch c {
	case Q1:
		return "Q1"
	case Q2:
		return "Q2"
	case Q3:
		return "Q3"
	case Q4:
		return "Q4"
	default:
		return "unsupported"
	}
}

// Classify assigns the query to Q1-Q4 or Unsupported per Section 4.2,
// looking only at predicates on fragmentation dimensions.
func (s *Spec) Classify(q Query) QueryClass {
	finer, coarser, equal := false, false, false
	for _, p := range q.Preds {
		ai := s.byDim[p.Dim]
		if ai == -1 {
			continue
		}
		fl := s.attrs[ai].Level
		switch {
		case p.Level == fl:
			equal = true
		case p.Level > fl: // finer (deeper in the hierarchy)
			finer = true
		default:
			coarser = true
		}
	}
	switch {
	case !finer && !coarser && !equal:
		return Unsupported
	case finer && coarser:
		return Q4
	case finer:
		return Q2
	case coarser:
		return Q3
	default:
		return Q1
	}
}

// NeedsBitmap reports whether evaluating predicate p requires bitmap access
// under this fragmentation (Section 4.3, step 2): yes iff p's dimension is
// not a fragmentation dimension, or p is at a strictly finer level than the
// fragmentation attribute.
func (s *Spec) NeedsBitmap(p Pred) bool {
	ai := s.byDim[p.Dim]
	if ai == -1 {
		return true
	}
	return p.Level > s.attrs[ai].Level
}

// BitmapPreds returns the query predicates that require bitmap access.
func (s *Spec) BitmapPreds(q Query) []Pred {
	var out []Pred
	for _, p := range q.Preds {
		if s.NeedsBitmap(p) {
			out = append(out, p)
		}
	}
	return out
}

// GroupAligned reports whether every GroupBy level of the query is at or
// above the fragmentation level of its dimension — the fast path on which
// the group key is constant per fragment (internal/kernel.Grouper). A
// query without GroupBy is trivially aligned.
func (s *Spec) GroupAligned(q Query) bool {
	for _, ref := range q.GroupBy {
		ai := s.byDim[ref.Dim]
		if ai == -1 || ref.Level > s.attrs[ai].Level {
			return false
		}
	}
	return true
}

// Region describes the relevant fragments of a query as one member range
// per fragmentation attribute (allocation order). Ranges are half-open.
type Region struct {
	Lo, Hi []int // per attribute: members [Lo[i], Hi[i]) are relevant
}

// Count returns the number of fragments in the region.
func (r Region) Count() int64 {
	n := int64(1)
	for i := range r.Lo {
		n *= int64(r.Hi[i] - r.Lo[i])
	}
	return n
}

// Relevant computes the fragments a query must process (Section 4.2): for
// each fragmentation attribute, a predicate at the same level selects one
// member; a finer predicate selects its single ancestor; a coarser
// predicate selects the descendant range; no predicate on the dimension
// selects the full domain.
func (s *Spec) Relevant(q Query) Region {
	m := len(s.attrs)
	b := make([]int, 2*m)
	r := Region{Lo: b[:m:m], Hi: b[m:]}
	for i, a := range s.attrs {
		d := &s.star.Dims[a.Dim]
		p, ok := q.PredOnDim(a.Dim)
		switch {
		case !ok:
			r.Lo[i], r.Hi[i] = 0, s.radix[i]
		case p.Level >= a.Level:
			v := d.Ancestor(p.Level, p.Member, a.Level)
			r.Lo[i], r.Hi[i] = v, v+1
		default:
			r.Lo[i], r.Hi[i] = d.DescendantRange(p.Level, p.Member, a.Level)
		}
	}
	return r
}

// RelevantCount returns the number of fragments the query is confined to.
func (s *Spec) RelevantCount(q Query) int64 {
	return s.Relevant(q).Count()
}

// ForEachFragment calls fn with every relevant fragment id, in allocation
// order, stopping early if fn returns false. Use RelevantCount first if the
// region may be huge.
func (s *Spec) ForEachFragment(q Query, fn func(id int64, coord []int) bool) {
	r := s.Relevant(q)
	coord := make([]int, len(s.attrs))
	copy(coord, r.Lo)
	for {
		if !fn(s.ID(coord), coord) {
			return
		}
		i := len(coord) - 1
		for ; i >= 0; i-- {
			coord[i]++
			if coord[i] < r.Hi[i] {
				break
			}
			coord[i] = r.Lo[i]
		}
		if i < 0 {
			return
		}
	}
}

// FragmentAt returns the i-th fragment of region r (0 <= i < r.Count())
// in ForEachFragment's order — mixed radix, last attribute fastest —
// without enumerating the ones before it.
func (s *Spec) FragmentAt(r Region, i int64) int64 {
	var id, stride int64 = 0, 1
	for a := len(r.Lo) - 1; a >= 0; a-- {
		w := int64(r.Hi[a] - r.Lo[a])
		id += (int64(r.Lo[a]) + i%w) * stride
		i /= w
		stride *= int64(s.radix[a])
	}
	return id
}

// FragmentIDs materialises the relevant fragment ids (allocation order).
func (s *Spec) FragmentIDs(q Query) []int64 {
	n := s.RelevantCount(q)
	ids := make([]int64, 0, n)
	s.ForEachFragment(q, func(id int64, _ []int) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// FragmentSelectivity returns the fraction of rows within one relevant
// fragment that match the query (uniformity assumption). Predicates at or
// above the fragmentation level contribute nothing (all fragment rows
// match); finer predicates and predicates on non-fragmentation dimensions
// reduce it.
func (s *Spec) FragmentSelectivity(q Query) float64 {
	sel := 1.0
	for _, p := range q.Preds {
		d := &s.star.Dims[p.Dim]
		ai := s.byDim[p.Dim]
		if ai == -1 {
			sel /= float64(d.Levels[p.Level].Card)
			continue
		}
		fl := s.attrs[ai].Level
		if p.Level > fl {
			// Within a fragment, the fragmentation attribute is fixed; the
			// finer predicate selects 1 of the fan-out many descendants.
			sel /= float64(d.FanOutBetween(fl, p.Level))
		}
	}
	return sel
}
