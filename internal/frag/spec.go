// Package frag implements MDHF, the multi-dimensional hierarchical
// fragmentation of star schema fact tables proposed by Stöhr/Märtens/Rahm
// (VLDB 2000, Section 4): point fragmentations on one attribute per
// dimension, query-to-fragment confinement exploiting dimension hierarchies
// (query types Q1-Q4), bitmap elimination, and the fragmentation thresholds
// of Section 4.4.
package frag

import (
	"fmt"
	"strings"

	"repro/internal/schema"
)

// Attr identifies a fragmentation attribute: one hierarchy level of one
// dimension, both as indices into the star schema.
type Attr struct {
	Dim   int
	Level int
}

// Spec is a multi-dimensional (point) fragmentation F = {d1::l1, ..., dm::lm}.
// Each fact fragment holds all rows sharing one member value per
// fragmentation attribute. The declared attribute order defines the
// allocation order of fragments (Figure 2): the last attribute varies
// fastest.
type Spec struct {
	star  *schema.Star
	attrs []Attr
	radix []int // cardinality of each fragmentation attribute
	div   []int // a leaf's member of attribute i is leaf / div[i]
	// byDim[d] is the index into attrs of dimension d's attribute, or -1.
	byDim []int
}

// New builds and validates a fragmentation spec. At most one attribute per
// dimension is allowed; at least one attribute is required.
func New(star *schema.Star, attrs []Attr) (*Spec, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("frag: empty fragmentation")
	}
	s := &Spec{star: star, attrs: attrs, byDim: make([]int, len(star.Dims))}
	for i := range s.byDim {
		s.byDim[i] = -1
	}
	for i, a := range attrs {
		if a.Dim < 0 || a.Dim >= len(star.Dims) {
			return nil, fmt.Errorf("frag: attribute %d references dimension %d of %d", i, a.Dim, len(star.Dims))
		}
		d := &star.Dims[a.Dim]
		if a.Level < 0 || a.Level >= d.Depth() {
			return nil, fmt.Errorf("frag: attribute %d references level %d of dimension %s (depth %d)", i, a.Level, d.Name, d.Depth())
		}
		if s.byDim[a.Dim] != -1 {
			return nil, fmt.Errorf("frag: dimension %s referenced twice", d.Name)
		}
		s.byDim[a.Dim] = i
		s.radix = append(s.radix, d.Levels[a.Level].Card)
		s.div = append(s.div, d.FanOutBetween(a.Level, d.Leaf()))
	}
	return s, nil
}

// MustNew is New, panicking on error. For tests and literals.
func MustNew(star *schema.Star, attrs []Attr) *Spec {
	s, err := New(star, attrs)
	if err != nil {
		panic(err)
	}
	return s
}

// Parse builds a spec from the paper's notation, e.g.
// "time::month, product::group" (FMonthGroup), with or without the one
// pair of braces String prints around it.
func Parse(star *schema.Star, text string) (*Spec, error) {
	if t := strings.TrimSpace(text); strings.HasPrefix(t, "{") && strings.HasSuffix(t, "}") {
		text = t[1 : len(t)-1]
	}
	var attrs []Attr
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		dl := strings.SplitN(part, "::", 2)
		if len(dl) != 2 {
			return nil, fmt.Errorf("frag: malformed attribute %q (want dim::level)", part)
		}
		di := star.DimIndex(strings.TrimSpace(dl[0]))
		if di < 0 {
			return nil, fmt.Errorf("frag: unknown dimension %q", dl[0])
		}
		li := star.Dims[di].LevelIndex(strings.TrimSpace(dl[1]))
		if li < 0 {
			return nil, fmt.Errorf("frag: unknown level %q of dimension %s", dl[1], star.Dims[di].Name)
		}
		attrs = append(attrs, Attr{Dim: di, Level: li})
	}
	return New(star, attrs)
}

// MustParse is Parse, panicking on error.
func MustParse(star *schema.Star, text string) *Spec {
	s, err := Parse(star, text)
	if err != nil {
		panic(err)
	}
	return s
}

// Star returns the schema the spec fragments.
func (s *Spec) Star() *schema.Star { return s.star }

// Attrs returns the fragmentation attributes in allocation order.
func (s *Spec) Attrs() []Attr { return s.attrs }

// Dimensionality returns the number of fragmentation dimensions m.
func (s *Spec) Dimensionality() int { return len(s.attrs) }

// AttrOfDim returns the index (within Attrs) of the fragmentation attribute
// on dimension d, or -1 if d is not a fragmentation dimension.
func (s *Spec) AttrOfDim(d int) int { return s.byDim[d] }

// NumFragments returns n, the total number of fact fragments: the product
// of the fragmentation attributes' cardinalities.
func (s *Spec) NumFragments() int64 {
	n := int64(1)
	for _, r := range s.radix {
		n *= int64(r)
	}
	return n
}

// String renders the spec in the paper's notation.
func (s *Spec) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		d := &s.star.Dims[a.Dim]
		fmt.Fprintf(&b, "%s::%s", d.Name, d.Levels[a.Level].Name)
	}
	b.WriteByte('}')
	return b.String()
}

// CoordOf returns the fragment coordinate (one member per fragmentation
// attribute) of a fact row, given the row's leaf member per dimension.
func (s *Spec) CoordOf(leafMembers []int) []int {
	coord := make([]int, len(s.attrs))
	for i, a := range s.attrs {
		d := &s.star.Dims[a.Dim]
		coord[i] = d.Ancestor(d.Leaf(), leafMembers[a.Dim], a.Level)
	}
	return coord
}

// ID maps a fragment coordinate to its dense fragment id in allocation
// order (mixed radix, last attribute fastest).
func (s *Spec) ID(coord []int) int64 {
	var id int64
	for i, c := range coord {
		id = s.shift(id, i, c)
	}
	return id
}

// IDOf is ID(CoordOf(leafMembers)) without the coordinate slice: the
// per-row form for builds, appends and routing, one division per
// attribute. It panics on the coordinates ID panics on.
func (s *Spec) IDOf(leafMembers []int) int64 {
	var id int64
	for i, a := range s.attrs {
		id = s.shift(id, i, leafMembers[a.Dim]/s.div[i])
	}
	return id
}

// shift appends member c of attribute i to the mixed-radix id.
func (s *Spec) shift(id int64, i, c int) int64 {
	if c < 0 || c >= s.radix[i] {
		panic(fmt.Sprintf("frag: coordinate %d out of range 0..%d", c, s.radix[i]-1))
	}
	return id*int64(s.radix[i]) + int64(c)
}

// Coord maps a fragment id back to its coordinate.
func (s *Spec) Coord(id int64) []int {
	coord := make([]int, len(s.radix))
	for i := len(s.radix) - 1; i >= 0; i-- {
		coord[i] = int(id % int64(s.radix[i]))
		id /= int64(s.radix[i])
	}
	return coord
}

// FragmentRows returns the expected number of fact rows per fragment
// (uniform distribution, as assumed throughout the paper).
func (s *Spec) FragmentRows() float64 {
	return float64(s.star.N()) / float64(s.NumFragments())
}

// FragmentPages returns the expected number of fact pages per fragment.
func (s *Spec) FragmentPages() float64 {
	return s.FragmentRows() / float64(s.star.FactTuplesPerPage())
}

// BitmapFragmentPages returns the size of one bitmap fragment in pages
// (possibly fractional; Section 4.4). A bitmap stores 1 bit per fact tuple,
// so a fact fragment is 8*TupleSize times larger than its bitmap fragment.
func (s *Spec) BitmapFragmentPages() float64 {
	return s.FragmentRows() / 8 / float64(s.star.PageSize)
}

// MaxFragments returns the paper's nmax threshold (Section 4.4): the largest
// fragment count for which a bitmap fragment still spans at least
// prefetchGran pages: nmax = N / (8 * PgSize * PrefetchGran).
func MaxFragments(star *schema.Star, prefetchGran int) int64 {
	return star.N() / (8 * int64(star.PageSize) * int64(prefetchGran))
}
