package bitmap

// Word-aligned hybrid (WAH) compression for bitsets. The paper notes that
// the storage overhead of bitmap indices "may be reduced by compressing
// the bitmaps" (Section 3.2); WAH is the classic scheme that keeps
// bitwise operations cheap by aligning runs to word boundaries.
//
// Layout: bits are grouped into 63-bit groups. A literal word has MSB 0
// and carries one group in its low 63 bits. A fill word has MSB 1, the
// fill bit in bit 62, and the run length (in groups) in the low 62 bits.
//
// WAH is a format of the on-disk store only: the executor decodes a
// stored bitmap into a Bitset (DecompressInto) and executes on that, and
// the in-memory engine keeps Bitsets throughout. Beyond the codec, only
// AndAllInto runs on the encoded words, a k-way intersection that skips a
// zero-fill run in any operand in every operand at once without decoding
// a single group.

const (
	groupBits = 63
	fillFlag  = uint64(1) << 63
	fillOne   = uint64(1) << 62
	maxRun    = fillOne - 1
	groupMask = (uint64(1) << groupBits) - 1
)

// Compressed is a WAH-compressed immutable bitmap.
type Compressed struct {
	n     int // length in bits
	words []uint64
}

// Len returns the number of bits.
func (c *Compressed) Len() int { return c.n }

// Bytes returns the compressed storage size in bytes.
func (c *Compressed) Bytes() int { return len(c.words) * 8 }

// Words exposes the raw encoded words for serialisation.
func (c *Compressed) Words() []uint64 { return c.words }

// ResetWords reinitialises c to an n-bit bitmap backed by k encoded words,
// reusing the existing allocation where possible, and returns the words
// slice for the caller to fill — the deserialisation counterpart of Words
// for allocation-free re-reads.
func (c *Compressed) ResetWords(n, k int) []uint64 {
	c.n = n
	if cap(c.words) < k {
		c.words = make([]uint64, k)
	} else {
		c.words = c.words[:k]
	}
	return c.words
}

// groups returns the number of 63-bit groups covering c.
func (c *Compressed) groups() int { return (c.n + groupBits - 1) / groupBits }

// group extracts the g-th 63-bit group of b, zero-padded at the tail.
func group(b *Bitset, g int) uint64 {
	var v uint64
	base := g * groupBits
	// Collect from the two underlying 64-bit words the group straddles.
	w0 := base / wordBits
	off := base % wordBits
	if w0 < len(b.words) {
		v = b.words[w0] >> uint(off)
		if off > 0 && w0+1 < len(b.words) {
			v |= b.words[w0+1] << uint(wordBits-off)
		}
	}
	return v & groupMask
}

// appender accumulates 63-bit groups into canonical WAH words, merging
// adjacent same-valued runs and converting all-zero / all-one literals
// into fills. All compressed producers funnel through it so that equal
// bitmaps have equal encodings regardless of which operation built them.
type appender struct {
	words  []uint64
	runVal uint64 // 0 or 1
	runLen uint64
}

func (a *appender) flush() {
	if a.runLen == 0 {
		return
	}
	w := fillFlag | a.runLen
	if a.runVal != 0 {
		w |= fillOne
	}
	a.words = append(a.words, w)
	a.runLen = 0
}

// run appends n groups of the given fill bit (0 or 1).
func (a *appender) run(bit, n uint64) {
	if n == 0 {
		return
	}
	if a.runLen > 0 && a.runVal != bit {
		a.flush()
	}
	a.runVal = bit
	for n > 0 {
		take := maxRun - a.runLen
		if take > n {
			take = n
		}
		a.runLen += take
		n -= take
		if a.runLen == maxRun && n > 0 {
			a.flush()
		}
	}
}

// group appends one 63-bit group, run-encoding it when uniform.
func (a *appender) group(v uint64) {
	switch v {
	case 0:
		a.run(0, 1)
	case groupMask:
		a.run(1, 1)
	default:
		a.flush()
		a.words = append(a.words, v)
	}
}

// CompressInto encodes a bitset into dst, reusing dst's words, and
// returns dst.
func CompressInto(dst *Compressed, b *Bitset) *Compressed {
	dst.n = b.Len()
	groups := (b.Len() + groupBits - 1) / groupBits
	// Zero-pad semantics: the final partial group is stored as-is.
	app := appender{words: dst.words[:0]}
	for g := 0; g < groups; g++ {
		app.group(group(b, g))
	}
	app.flush()
	dst.words = app.words
	return dst
}

// DecompressInto reconstructs the bitset into dst, reusing its storage,
// and returns dst. One-fill runs are written word-wise via SetRange
// rather than group by group.
func (c *Compressed) DecompressInto(dst *Bitset) *Bitset {
	dst.Reinit(c.n)
	g := 0
	for _, w := range c.words {
		if w&fillFlag == 0 {
			base := g * groupBits
			w0 := base / wordBits
			off := base % wordBits
			if w0 < len(dst.words) {
				dst.words[w0] |= w << uint(off)
				if off > 0 && w0+1 < len(dst.words) {
					dst.words[w0+1] |= (w & groupMask) >> uint(wordBits-off)
				}
			}
			g++
			continue
		}
		run := int(w & maxRun)
		if w&fillOne != 0 {
			lo := g * groupBits
			hi := (g + run) * groupBits
			if hi > c.n {
				hi = c.n
			}
			dst.SetRange(lo, hi)
		}
		g += run
	}
	dst.trim()
	return dst
}

// cursor walks the groups of a compressed bitmap with O(1) run skipping:
// skip(n) advances n groups touching only the fill words they live in.
type cursor struct {
	words []uint64
	pos   int
	fill  bool   // current item is a fill run
	val   uint64 // literal group, or fill value (0 / groupMask)
	left  uint64 // groups remaining in the current item (1 for a literal)
}

// load ensures the cursor holds a current item.
func (cu *cursor) load() {
	for cu.left == 0 {
		w := cu.words[cu.pos]
		cu.pos++
		if w&fillFlag == 0 {
			cu.fill, cu.val, cu.left = false, w&groupMask, 1
			return
		}
		cu.fill = true
		cu.val = 0
		if w&fillOne != 0 {
			cu.val = groupMask
		}
		cu.left = w & maxRun
	}
}

// skip advances n groups.
func (cu *cursor) skip(n uint64) {
	for n > 0 {
		cu.load()
		t := cu.left
		if t > n {
			t = n
		}
		cu.left -= t
		n -= t
	}
}

// take consumes and returns one group.
func (cu *cursor) take() uint64 {
	cu.load()
	cu.left--
	return cu.val
}

// AndAllInto intersects any number of compressed bitmaps of equal length
// in a single k-way pass, writing the result into out (allocated when
// nil) and reusing out's storage. When any operand presents a zero-fill
// run the result is zero for the run's whole extent, so every operand
// skips that many groups without decoding them. out must not alias any
// operand.
func AndAllInto(out *Compressed, ops ...*Compressed) *Compressed {
	if len(ops) == 0 {
		panic("bitmap: AndAllInto of no operands")
	}
	n := ops[0].n
	for _, o := range ops[1:] {
		if o.n != n {
			panic("bitmap: compressed length mismatch")
		}
	}
	if out == nil {
		out = &Compressed{}
	}
	out.n = n
	// Cursors live on the stack for realistic operand counts (every
	// surviving bit of every dimension is still well under 32), keeping
	// the per-fragment hot loop allocation-free.
	var curArr [32]cursor
	var cur []cursor
	if len(ops) <= len(curArr) {
		cur = curArr[:len(ops)]
	} else {
		cur = make([]cursor, len(ops))
	}
	for i, o := range ops {
		cur[i].words = o.words
	}
	app := appender{words: out.words[:0]}
	total := ops[0].groups()
	g := 0
	for g < total {
		rem := uint64(total - g)
		var maxZero uint64
		minOne := rem
		allOnes := true
		for i := range cur {
			cu := &cur[i]
			cu.load()
			switch {
			case cu.fill && cu.val == 0:
				allOnes = false
				if cu.left > maxZero {
					maxZero = cu.left
				}
			case cu.fill: // one-fill
				if cu.left < minOne {
					minOne = cu.left
				}
			default:
				allOnes = false
			}
		}
		if maxZero > 0 {
			// Result is zero for the longest zero run in view: skip it in
			// every operand.
			if maxZero > rem {
				maxZero = rem
			}
			app.run(0, maxZero)
			for i := range cur {
				cur[i].skip(maxZero)
			}
			g += int(maxZero)
			continue
		}
		if allOnes {
			// Every operand is inside a one-fill: emit the shortest.
			app.run(1, minOne)
			for i := range cur {
				cur[i].skip(minOne)
			}
			g += int(minOne)
			continue
		}
		// At least one literal, no zero fill: decode this one group.
		v := groupMask
		for i := range cur {
			v &= cur[i].take()
		}
		app.group(v)
		g++
	}
	app.flush()
	out.words = app.words
	return out
}
