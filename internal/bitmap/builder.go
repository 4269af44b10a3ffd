package bitmap

// Builder accumulates bits into a WAH-compressed bitmap one append at a
// time — the incremental producer behind delta bitmap fragments. Unlike
// Compress it never materialises a Bitset, and unlike the operator
// kernels it can resume from an already-compressed fragment
// (NewBuilderFrom) without rewriting it: the encoded words are replayed
// run-wholesale through the canonical appender (O(words), not O(bits))
// and the trailing partial group is popped back into the bit buffer so
// subsequent appends keep merging runs across the old/new boundary.
//
// Because every group funnels through the same appender as Compress,
// Finish produces bit-for-bit the encoding Compress would give for the
// equivalent bitset — the equality the delta equivalence oracle relies
// on.
type Builder struct {
	app    appender
	n      int    // bits appended so far
	cur    uint64 // pending partial group, low curLen bits valid
	curLen int
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{}
}

// NewBuilderFrom returns a builder whose content equals c, ready to
// append past c's final bit. c is not modified and may keep serving
// reads.
func NewBuilderFrom(c *Compressed) *Builder {
	b := &Builder{n: c.Len()}
	// Room for the replayed words and a short extension in one allocation.
	b.app.words = make([]uint64, 0, len(c.words)+4)
	full := c.n / groupBits // complete groups; a partial tail re-opens
	r := c.n % groupBits
	total := c.groups()
	cu := cursor{words: c.words}
	g := 0
	for g < total {
		cu.load()
		if !cu.fill {
			v := cu.take()
			if g < full {
				b.app.group(v)
			} else {
				b.cur, b.curLen = v, r
			}
			g++
			continue
		}
		cnt := int(cu.left)
		if g+cnt > total {
			cnt = total - g
		}
		bit := uint64(0)
		if cu.val != 0 {
			bit = 1
		}
		whole := cnt
		if g+whole > full {
			whole = full - g
		}
		if whole > 0 {
			b.app.run(bit, uint64(whole))
		}
		if g+cnt > full && r > 0 {
			// The run covers the zero-padded final partial group.
			if bit != 0 {
				b.cur = uint64(1)<<uint(r) - 1
			} else {
				b.cur = 0
			}
			b.curLen = r
		}
		cu.skip(uint64(cnt))
		g += cnt
	}
	return b
}

// Len returns the number of bits appended so far.
func (b *Builder) Len() int { return b.n }

// Append appends one bit.
func (b *Builder) Append(bit bool) {
	if bit {
		b.cur |= uint64(1) << uint(b.curLen)
	}
	b.curLen++
	b.n++
	if b.curLen == groupBits {
		b.app.group(b.cur)
		b.cur, b.curLen = 0, 0
	}
}

// AppendRun appends n copies of bit, run-encoding whole groups directly.
func (b *Builder) AppendRun(bit bool, n int) {
	for n > 0 && b.curLen > 0 {
		b.Append(bit)
		n--
	}
	if full := n / groupBits; full > 0 {
		v := uint64(0)
		if bit {
			v = 1
		}
		b.app.run(v, uint64(full))
		b.n += full * groupBits
		n -= full * groupBits
	}
	for ; n > 0; n-- {
		b.Append(bit)
	}
}

// Finish returns the compressed bitmap of everything appended so far.
// The builder stays valid: more bits may be appended and Finish called
// again, each call returning an independent snapshot.
func (b *Builder) Finish() *Compressed {
	app := appender{
		words:  append(make([]uint64, 0, len(b.app.words)+2), b.app.words...), // + the tail group and a flushed run
		runVal: b.app.runVal,
		runLen: b.app.runLen,
	}
	if b.curLen > 0 {
		// Zero-pad the partial tail group, exactly as Compress stores it.
		app.group(b.cur)
	}
	app.flush()
	return &Compressed{n: b.n, words: app.words}
}
