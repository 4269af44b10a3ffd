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
// Beyond the round-trip codec this file implements kernels that run
// directly on the encoded words — what the delta segments' selections
// (frag.DeltaIndex.Select) execute on; the base-row folds of the two
// backends decode stored bitmaps into Bitsets instead. Logical operations
// (AndAll, AndNot, Not) skip runs — a zero-fill run in any operand
// advances every operand by the whole run without decoding a single
// group — and streaming iterators (ForEach, ForEachRange) let hit
// positions flow out of a compressed result without ever materialising
// a Bitset.

import "math/bits"

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

// FromWords reconstructs a compressed bitmap from serialised words.
func FromWords(nBits int, words []uint64) *Compressed {
	return &Compressed{n: nBits, words: words}
}

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

// Compress encodes a bitset.
func Compress(b *Bitset) *Compressed {
	c := &Compressed{n: b.Len()}
	groups := (b.Len() + groupBits - 1) / groupBits
	// Zero-pad semantics: the final partial group is stored as-is.
	var app appender
	for g := 0; g < groups; g++ {
		app.group(group(b, g))
	}
	app.flush()
	c.words = app.words
	return c
}

// CompressedOnes returns the compressed all-ones bitmap of n bits — the
// neutral element for AndNot chains when a selection has no positive
// operand.
func CompressedOnes(n int) *Compressed {
	return CompressedOnesInto(nil, n)
}

// CompressedOnesInto is CompressedOnes writing into out (allocated when
// nil), reusing its storage.
func CompressedOnesInto(out *Compressed, n int) *Compressed {
	if out == nil {
		out = &Compressed{}
	}
	out.n = n
	groups := (n + groupBits - 1) / groupBits
	r := n % groupBits
	app := appender{words: out.words[:0]}
	if r == 0 {
		app.run(1, uint64(groups))
	} else {
		app.run(1, uint64(groups-1))
		app.group(uint64(1)<<uint(r) - 1)
	}
	app.flush()
	out.words = app.words
	return out
}

// Decompress reconstructs the bitset.
func (c *Compressed) Decompress() *Bitset {
	return c.DecompressInto(New(c.n))
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

// andInto sets dst = dst AND c (AND NOT c when complement), decoding c
// group by group straight into dst's words: how a stored WAH bitmap joins
// a materialised selection without a Bitset of its own. dst has c's
// length and zero padding, which a complemented final group cannot set.
func (c *Compressed) andInto(dst *Bitset, complement bool) {
	if dst.n != c.n {
		panic("bitmap: compressed length mismatch")
	}
	var flip uint64
	if complement {
		flip = groupMask
	}
	cu := cursor{words: c.words}
	for g, total := 0, c.groups(); g < total; g++ {
		v := cu.take() ^ flip
		// The group is bits [off, off+63) of the two words it straddles;
		// every bit outside that window is kept (a shift of 64 gives 0).
		w0, off := g*groupBits/wordBits, uint(g*groupBits%wordBits)
		dst.words[w0] &= v<<off | ^(groupMask << off)
		if w0+1 < len(dst.words) {
			dst.words[w0+1] &= v>>(wordBits-off) | ^(groupMask >> (wordBits - off))
		}
	}
}

// OnesCount returns the number of set bits without decompressing.
func (c *Compressed) OnesCount() int {
	count := 0
	g := 0
	groups := c.groups()
	lastBits := c.n - (groups-1)*groupBits
	for _, w := range c.words {
		if w&fillFlag == 0 {
			count += bits.OnesCount64(w & groupMask)
			g++
			continue
		}
		run := int(w & maxRun)
		if w&fillOne != 0 {
			// Full groups of ones; the final group of the bitmap may be
			// partial.
			count += run * groupBits
			if g+run == groups {
				count -= groupBits - lastBits
			}
		}
		g += run
	}
	return count
}

// Any reports whether at least one bit is set, without decompressing.
func (c *Compressed) Any() bool {
	for _, w := range c.words {
		if w&fillFlag == 0 {
			if w&groupMask != 0 {
				return true
			}
		} else if w&fillOne != 0 && w&maxRun > 0 {
			return true
		}
	}
	return false
}

// ForEachRange calls fn with every maximal run [lo, hi) of consecutive set
// bits, in ascending order, streaming directly over the encoded words:
// one-fill runs yield without decoding, literals are scanned with bit
// tricks.
func (c *Compressed) ForEachRange(fn func(lo, hi int)) {
	g := 0
	open := -1 // start of the in-progress run of ones, or -1
	for _, w := range c.words {
		if w&fillFlag != 0 {
			run := int(w & maxRun)
			if w&fillOne != 0 {
				if open < 0 {
					open = g * groupBits
				}
			} else if open >= 0 {
				fn(open, g*groupBits)
				open = -1
			}
			g += run
			continue
		}
		base := g * groupBits
		g++
		v := w & groupMask
		if v == 0 {
			if open >= 0 {
				fn(open, base)
				open = -1
			}
			continue
		}
		off := 0
		for v != 0 {
			if tz := bits.TrailingZeros64(v); tz > 0 {
				if open >= 0 {
					fn(open, base+off)
					open = -1
				}
				v >>= uint(tz)
				off += tz
			}
			ones := bits.TrailingZeros64(^v)
			if open < 0 {
				open = base + off
			}
			v >>= uint(ones)
			off += ones
		}
		// Trailing zeros inside the group close the run.
		if off < groupBits && open >= 0 {
			fn(open, base+off)
			open = -1
		}
	}
	if open >= 0 {
		hi := c.n
		if open < hi {
			fn(open, hi)
		}
	}
}

// ForEach calls fn with the index of every set bit, in ascending order,
// without materialising a Bitset.
func (c *Compressed) ForEach(fn func(i int)) {
	c.ForEachRange(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
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

// And intersects two compressed bitmaps of equal length, producing a
// compressed result without materialising either side.
func And(a, b *Compressed) *Compressed {
	return AndAll(a, b)
}

// AndAll intersects any number of compressed bitmaps of equal length in a
// single k-way pass. When any operand presents a zero-fill run the result
// is zero for the run's whole extent, so every operand skips that many
// groups without decoding them.
func AndAll(ops ...*Compressed) *Compressed {
	return AndAllInto(nil, ops...)
}

// AndAllInto is AndAll writing the result into out (allocated when nil),
// reusing out's storage. out must not alias any operand.
func AndAllInto(out *Compressed, ops ...*Compressed) *Compressed {
	if len(ops) == 0 {
		panic("bitmap: AndAll of no operands")
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

// Selection is the reusable operand and result buffer set of one
// conjunction of compressed bitmaps taken verbatim or complemented — a
// star query's bitmap selection within a fragment. The zero value is
// ready to use.
type Selection struct {
	pos, neg []*Compressed
	res, tmp *Compressed
}

// Reset empties the operand lists, keeping their storage.
func (s *Selection) Reset() { s.pos, s.neg = s.pos[:0], s.neg[:0] }

// Add adds c, or its complement, to the conjunction.
func (s *Selection) Add(c *Compressed, complement bool) {
	if complement {
		s.neg = append(s.neg, c)
	} else {
		s.pos = append(s.pos, c)
	}
}

// Intersect ANDs the operands over rows bits: all verbatim ones with a
// single k-way AndAll — or, when every operand is complemented (an
// all-zero pattern), the all-ones bitmap — then the complemented ones
// folded in with run-skipping AndNot. The result is valid until the next
// Intersect on the same Selection.
func (s *Selection) Intersect(rows int) *Compressed {
	if len(s.pos) > 0 {
		s.res = AndAllInto(s.res, s.pos...)
	} else {
		s.res = CompressedOnesInto(s.res, rows)
	}
	for _, n := range s.neg {
		s.tmp = AndNotInto(s.tmp, s.res, n)
		s.res, s.tmp = s.tmp, s.res
	}
	return s.res
}

// AndNot returns a AND NOT b over compressed operands of equal length.
func AndNot(a, b *Compressed) *Compressed {
	return AndNotInto(nil, a, b)
}

// AndNotInto is AndNot writing into out (allocated when nil), reusing its
// storage. out must not alias a or b. Zero runs of a and one runs of b
// skip whole extents without decoding; one runs of a over zero runs of b
// emit fills directly.
func AndNotInto(out *Compressed, a, b *Compressed) *Compressed {
	if a.n != b.n {
		panic("bitmap: compressed length mismatch")
	}
	if out == nil {
		out = &Compressed{}
	}
	out.n = a.n
	ca := cursor{words: a.words}
	cb := cursor{words: b.words}
	app := appender{words: out.words[:0]}
	total := a.groups()
	g := 0
	for g < total {
		rem := uint64(total - g)
		ca.load()
		cb.load()
		// a&^b is zero wherever a is zero or b is one.
		var zskip uint64
		if ca.fill && ca.val == 0 && ca.left > zskip {
			zskip = ca.left
		}
		if cb.fill && cb.val == groupMask && cb.left > zskip {
			zskip = cb.left
		}
		if zskip > 0 {
			if zskip > rem {
				zskip = rem
			}
			app.run(0, zskip)
			ca.skip(zskip)
			cb.skip(zskip)
			g += int(zskip)
			continue
		}
		if ca.fill && ca.val == groupMask && cb.fill && cb.val == 0 {
			n := ca.left
			if cb.left < n {
				n = cb.left
			}
			app.run(1, n)
			ca.skip(n)
			cb.skip(n)
			g += int(n)
			continue
		}
		// The zero padding of a's final group keeps the result's padding
		// zero without masking.
		app.group(ca.take() &^ cb.take())
		g++
	}
	app.flush()
	out.words = app.words
	return out
}

// Not returns the complement of c as a compressed bitmap: fills flip
// wholesale, literals flip word-wise, and the final partial group is
// masked so padding bits stay zero.
func Not(c *Compressed) *Compressed {
	out := &Compressed{n: c.n}
	total := c.groups()
	lastMask := groupMask
	if r := c.n % groupBits; r != 0 {
		lastMask = uint64(1)<<uint(r) - 1
	}
	cu := cursor{words: c.words}
	var app appender
	g := 0
	for g < total {
		cu.load()
		if cu.fill {
			cnt := cu.left
			if rem := uint64(total - g); cnt > rem {
				cnt = rem
			}
			flip := uint64(0)
			if cu.val == 0 {
				flip = 1
			}
			if g+int(cnt) == total && lastMask != groupMask {
				// The run reaches the padded final group: emit it masked.
				app.run(flip, cnt-1)
				if cu.val == 0 {
					app.group(lastMask)
				} else {
					app.group(0)
				}
			} else {
				app.run(flip, cnt)
			}
			cu.skip(cnt)
			g += int(cnt)
			continue
		}
		v := cu.take() ^ groupMask
		if g == total-1 {
			v &= lastMask
		}
		app.group(v)
		g++
	}
	app.flush()
	out.words = app.words
	return out
}

// Or unions two compressed bitmaps of equal length. Runs are processed
// wholesale: a one-fill in either operand forces ones, twin zero-fills
// skip together.
func Or(a, b *Compressed) *Compressed {
	if a.n != b.n {
		panic("bitmap: compressed length mismatch")
	}
	out := &Compressed{n: a.n}
	ca := cursor{words: a.words}
	cb := cursor{words: b.words}
	var app appender
	total := a.groups()
	g := 0
	for g < total {
		rem := uint64(total - g)
		ca.load()
		cb.load()
		var oskip uint64
		if ca.fill && ca.val == groupMask && ca.left > oskip {
			oskip = ca.left
		}
		if cb.fill && cb.val == groupMask && cb.left > oskip {
			oskip = cb.left
		}
		if oskip > 0 {
			if oskip > rem {
				oskip = rem
			}
			app.run(1, oskip)
			ca.skip(oskip)
			cb.skip(oskip)
			g += int(oskip)
			continue
		}
		if ca.fill && ca.val == 0 && cb.fill && cb.val == 0 {
			n := ca.left
			if cb.left < n {
				n = cb.left
			}
			app.run(0, n)
			ca.skip(n)
			cb.skip(n)
			g += int(n)
			continue
		}
		app.group(ca.take() | cb.take())
		g++
	}
	app.flush()
	out.words = app.words
	return out
}
