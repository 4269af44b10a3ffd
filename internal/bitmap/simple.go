package bitmap

import "fmt"

// SimpleIndex is a standard bitmap (join) index on one hierarchy level of a
// dimension: one bitmap per possible member value, each with one bit per
// fact row (Section 3.2). Suitable for low-cardinality attributes (TIME,
// CHANNEL in the paper).
type SimpleIndex struct {
	maps []*Bitset
}

// NewSimpleIndex builds a simple bitmap index over rows, where values[i] is
// the member (0..card-1) row i refers to at the indexed level.
func NewSimpleIndex(card int, values []int32) *SimpleIndex {
	for _, v := range values {
		if int(v) < 0 || int(v) >= card {
			panic(fmt.Sprintf("bitmap: value %d out of domain 0..%d", v, card-1))
		}
	}
	return NewLevelIndex(card, 1, values)
}

// NewLevelIndex builds the simple bitmap index on a level of card
// members over rows whose leaf members are leaves: member m's bitmap is
// its leaf range [m*width, (m+1)*width), so no row's member is derived.
func NewLevelIndex(card, width int, leaves []int32) *SimpleIndex {
	idx := &SimpleIndex{maps: make([]*Bitset, card)}
	for m := range idx.maps {
		idx.maps[m] = &Bitset{}
		idx.maps[m].FromKeys(leaves, KeyRule{Lo: int32(m * width), Hi: int32((m + 1) * width)})
	}
	return idx
}

// Bitmap returns the bitmap for member m. The caller must not modify it.
func (s *SimpleIndex) Bitmap(m int) *Bitset { return s.maps[m] }

// SelectInto copies into dst, reusing its storage, the bitmap marking all
// rows whose value equals m: exactly one bitmap is read.
func (s *SimpleIndex) SelectInto(dst *Bitset, m int) { dst.CopyFrom(s.maps[m]) }
