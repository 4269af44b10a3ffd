package bitmap

import "fmt"

// SimpleIndex is a standard bitmap (join) index on one hierarchy level of a
// dimension: one bitmap per possible member value, each with one bit per
// fact row (Section 3.2). Suitable for low-cardinality attributes (TIME,
// CHANNEL in the paper).
type SimpleIndex struct {
	card int
	rows int
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
	idx := &SimpleIndex{card: card, rows: len(leaves), maps: make([]*Bitset, card)}
	for m := range idx.maps {
		idx.maps[m] = &Bitset{}
		idx.maps[m].FromKeys(leaves, KeyRule{Lo: int32(m * width), Hi: int32((m + 1) * width)})
	}
	return idx
}

// Card returns the number of bitmaps (the attribute's cardinality).
func (s *SimpleIndex) Card() int { return s.card }

// Rows returns the number of fact rows covered.
func (s *SimpleIndex) Rows() int { return s.rows }

// NumBitmaps returns the number of bitmaps materialised, which for a simple
// index equals the cardinality.
func (s *SimpleIndex) NumBitmaps() int { return s.card }

// Bitmap returns the bitmap for member m. The caller must not modify it.
func (s *SimpleIndex) Bitmap(m int) *Bitset { return s.maps[m] }

// Select returns a fresh bitset marking all rows whose value equals m.
// Exactly one bitmap is read.
func (s *SimpleIndex) Select(m int) *Bitset { return s.maps[m].Clone() }

// SelectInto is Select copying into dst, reusing dst's storage.
func (s *SimpleIndex) SelectInto(dst *Bitset, m int) { dst.CopyFrom(s.maps[m]) }

// BitmapsRead returns how many bitmaps a point selection must access: one.
func (s *SimpleIndex) BitmapsRead() int { return 1 }

// Bytes returns the total storage of all bitmaps in bytes.
func (s *SimpleIndex) Bytes() int {
	t := 0
	for _, m := range s.maps {
		t += m.Bytes()
	}
	return t
}
