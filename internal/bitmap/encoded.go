package bitmap

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/schema"
)

// Layout describes the hierarchical encoding of one dimension in an encoded
// bitmap join index (Wu/Buchmann encoding as adapted in Section 3.2 and
// Table 1 of the paper): the dimension's leaf members are encoded as a
// concatenation of per-level bit fields, one field per hierarchy level,
// where the field of level i holds the member's child index within its
// parent. Members of the same coarser value thus share a bit-pattern prefix,
// so selections at level L only need the first PrefixBits(L) bitmaps.
// A builder encodes each leaf member once, through Codes: a table built
// on first use and sized by the leaf domain, 8 B a member (115 kB for
// APB-1's 14,400 product codes, at most 512 kB under the on-disk uint16
// key limit); a layout that only counts bits never builds it.
type Layout struct {
	dim *schema.Dimension
	// fieldBits[i] is the width of the bit field for level i.
	fieldBits []int
	// prefix[i] is the total width of fields 0..i.
	prefix []int

	codesOnce sync.Once
	codes     []uint64
}

// NewLayout derives the minimal hierarchical encoding for a dimension:
// field i is ceil(log2(fan-in of level i)) bits wide. padBits, if non-nil,
// adds extra (always-zero) bits to the corresponding level's field; the
// paper's CUSTOMER index uses one pad bit to arrive at its stated 12
// bitmaps (see DESIGN.md §5).
func NewLayout(dim *schema.Dimension, padBits []int) *Layout {
	if padBits != nil && len(padBits) != len(dim.Levels) {
		panic(fmt.Sprintf("bitmap: padBits length %d != levels %d", len(padBits), len(dim.Levels)))
	}
	l := &Layout{
		dim:       dim,
		fieldBits: make([]int, len(dim.Levels)),
		prefix:    make([]int, len(dim.Levels)),
	}
	total := 0
	for i := range dim.Levels {
		fanIn := dim.Levels[i].Card
		if i > 0 {
			fanIn = dim.FanOut(i - 1)
		}
		w := bitsFor(fanIn)
		if padBits != nil {
			w += padBits[i]
		}
		l.fieldBits[i] = w
		total += w
		l.prefix[i] = total
	}
	return l
}

// bitsFor returns ceil(log2(n)) for n >= 1, with bitsFor(1) = 0.
func bitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// TotalBits returns the number of bitmaps of the encoded index.
func (l *Layout) TotalBits() int { return l.prefix[len(l.prefix)-1] }

// FieldBits returns the bit width of the field for the given level.
func (l *Layout) FieldBits(level int) int { return l.fieldBits[level] }

// PrefixBits returns the number of leading bitmaps that must be evaluated to
// select a member at the given level (Table 1: 10 of 15 for a product
// GROUP, all 15 for a CODE).
func (l *Layout) PrefixBits(level int) int { return l.prefix[level] }

// SuffixBits returns the number of trailing bitmaps covering levels strictly
// below the given level. These are the bitmaps that survive when an MDHF
// fragmentation on that level makes the prefix bits constant per fragment
// (Section 4.2).
func (l *Layout) SuffixBits(level int) int { return l.TotalBits() - l.prefix[level] }

// Encode returns the bit pattern (in the low TotalBits bits, field of level
// 0 most significant) of leaf member m.
func (l *Layout) Encode(m int) uint64 {
	leaf := l.dim.Leaf()
	var v uint64
	for i := 0; i <= leaf; i++ {
		member := l.dim.Ancestor(leaf, m, i)
		v = v<<uint(l.fieldBits[i]) | uint64(l.dim.ChildIndex(i, member))
	}
	return v
}

// Codes returns the pattern of every leaf member, Codes()[m] ==
// Encode(m), built on the first call; the caller must not modify it.
func (l *Layout) Codes() []uint64 {
	l.codesOnce.Do(func() {
		l.codes = make([]uint64, l.dim.LeafCard())
		for m := range l.codes {
			l.codes[m] = l.Encode(m)
		}
	})
	return l.codes
}

// EncodePrefix returns the bit pattern of member m of the given level,
// occupying the low PrefixBits(level) bits: the leading fields of the
// code of its first leaf, whose fields below the level are all zero.
func (l *Layout) EncodePrefix(level, m int) uint64 {
	lo, _ := l.dim.DescendantRange(level, m, l.dim.Leaf())
	return l.Codes()[lo] >> uint(l.SuffixBits(level))
}

// String renders the layout like the paper's Table 1 sample pattern, e.g.
// "dddllfffggcoooo" for the APB-1 product dimension.
func (l *Layout) String() string {
	out := make([]byte, 0, l.TotalBits())
	used := [256]bool{}
	for i, w := range l.fieldBits {
		name := l.dim.Levels[i].Name
		c := name[0]
		for k := 0; k < len(name); k++ {
			if !used[name[k]] {
				c = name[k]
				break
			}
		}
		used[c] = true
		for j := 0; j < w; j++ {
			out = append(out, c)
		}
	}
	return string(out)
}

// EncodedIndex is an encoded bitmap join index over one dimension: bitmap j
// (0 = most significant) holds bit j of every row's encoded leaf value.
type EncodedIndex struct {
	layout *Layout
	rows   int
	maps   []*Bitset
}

// NewEncodedIndex builds the index over rows, where values[i] is the leaf
// member row i refers to.
func NewEncodedIndex(layout *Layout, values []int32) *EncodedIndex {
	k := layout.TotalBits()
	idx := &EncodedIndex{layout: layout, rows: len(values), maps: make([]*Bitset, k)}
	for j := range idx.maps {
		idx.maps[j] = &Bitset{}
		idx.maps[j].FromKeys(values, KeyRule{Codes: layout.Codes(), Shift: uint(k - 1 - j)})
	}
	return idx
}

// Bitmap returns bitmap j. The caller must not modify it.
func (e *EncodedIndex) Bitmap(j int) *Bitset { return e.maps[j] }

// Select returns a fresh bitset marking all rows whose dimension member
// belongs to member m of the given hierarchy level, and the number of
// bitmaps evaluated (PrefixBits(level); Section 3.2's "10 of the 15
// bitmaps" for a GROUP).
func (e *EncodedIndex) Select(level, m int) (*Bitset, int) {
	return e.SelectPartial(-1, level, m)
}

// SelectPartial matches member m of the given hierarchy level using only
// the bit fields of levels in (skipLevel, level] — the bitmaps that remain
// meaningful inside an MDHF fragment whose fragmentation attribute is at
// skipLevel and whose coarser bitmaps have been eliminated (Section 4.2).
// skipLevel -1 matches the full prefix (equivalent to Select). It returns
// the result and the number of bitmaps evaluated.
func (e *EncodedIndex) SelectPartial(skipLevel, level, m int) (*Bitset, int) {
	out := New(e.rows)
	return out, e.SelectPartialInto(out, skipLevel, level, m)
}

// SelectPartialInto is SelectPartial writing the selection into dst,
// reusing dst's storage (resized to the fragment's row count) — the
// allocation-free variant for per-worker scratch bitsets. The bit fields
// up to skipLevel are constant, so it ANDs bitmaps [skip, skip+nb), each
// taken verbatim where member m's pattern bit is 1 and complemented where
// it is 0. It returns nb, the number of bitmaps evaluated.
func (e *EncodedIndex) SelectPartialInto(dst *Bitset, skipLevel, level, m int) int {
	skip := 0
	if skipLevel >= 0 {
		skip = e.layout.PrefixBits(skipLevel)
	}
	nb := e.layout.PrefixBits(level) - skip
	pattern := e.layout.EncodePrefix(level, m)
	dst.Reinit(e.rows)
	dst.SetAll()
	for j := 0; j < nb; j++ {
		if b := e.maps[skip+j]; pattern>>uint(nb-1-j)&1 == 1 {
			dst.And(b)
		} else {
			dst.AndNot(b)
		}
	}
	return nb
}
