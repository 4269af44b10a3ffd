package bitmap

// Compressed counterparts of the simple and encoded bitmap indices: the
// per-row bitmaps are stored WAH-compressed and a selection decodes the
// operands it needs into the caller's scratch Bitset, through the same
// SelectInto / SelectPartialInto the materialised indices have — WAH is
// how the index is stored, not a second way to execute on it.

// CompressedSimpleIndex is a SimpleIndex whose member bitmaps are stored
// WAH-compressed.
type CompressedSimpleIndex struct {
	card int
	rows int
	maps []*Compressed
}

// CompressSimpleIndex compresses every member bitmap of s.
func CompressSimpleIndex(s *SimpleIndex) *CompressedSimpleIndex {
	c := &CompressedSimpleIndex{card: s.card, rows: s.rows, maps: make([]*Compressed, s.card)}
	for m, b := range s.maps {
		c.maps[m] = Compress(b)
	}
	return c
}

// Card returns the number of bitmaps (the attribute's cardinality).
func (c *CompressedSimpleIndex) Card() int { return c.card }

// Rows returns the number of fact rows covered.
func (c *CompressedSimpleIndex) Rows() int { return c.rows }

// Bitmap returns the compressed bitmap for member m. The caller must not
// modify it.
func (c *CompressedSimpleIndex) Bitmap(m int) *Compressed { return c.maps[m] }

// SelectInto is SimpleIndex.SelectInto: member m's bitmap decompressed
// into dst, reusing dst's storage.
func (c *CompressedSimpleIndex) SelectInto(dst *Bitset, m int) { c.maps[m].DecompressInto(dst) }

// Bytes returns the total compressed storage in bytes.
func (c *CompressedSimpleIndex) Bytes() int {
	t := 0
	for _, m := range c.maps {
		t += m.Bytes()
	}
	return t
}

// CompressedEncodedIndex is an EncodedIndex whose bit-position bitmaps are
// stored WAH-compressed.
type CompressedEncodedIndex struct {
	layout *Layout
	rows   int
	maps   []*Compressed // bit j of every row's encoding
}

// CompressEncodedIndex compresses every bit-position bitmap of e.
func CompressEncodedIndex(e *EncodedIndex) *CompressedEncodedIndex {
	c := &CompressedEncodedIndex{layout: e.layout, rows: e.rows, maps: make([]*Compressed, len(e.maps))}
	for j, b := range e.maps {
		c.maps[j] = Compress(b)
	}
	return c
}

// Layout returns the index's encoding layout.
func (c *CompressedEncodedIndex) Layout() *Layout { return c.layout }

// Rows returns the number of fact rows covered.
func (c *CompressedEncodedIndex) Rows() int { return c.rows }

// SelectPartialInto is EncodedIndex.SelectPartialInto: every bit-position
// bitmap of levels (skipLevel, level] is decoded out of its WAH words and
// ANDed into dst, verbatim or complemented as member m's pattern says. It
// returns the number of bitmaps evaluated.
func (c *CompressedEncodedIndex) SelectPartialInto(dst *Bitset, skipLevel, level, m int) int {
	skip, nb, pattern := c.layout.partialPattern(skipLevel, level, m)
	dst.Reinit(c.rows)
	dst.SetAll()
	for j := 0; j < nb; j++ {
		c.maps[skip+j].andInto(dst, pattern>>uint(nb-1-j)&1 == 0)
	}
	return nb
}

// Bytes returns the total compressed storage in bytes.
func (c *CompressedEncodedIndex) Bytes() int {
	t := 0
	for _, m := range c.maps {
		t += m.Bytes()
	}
	return t
}
