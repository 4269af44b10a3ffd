// Package bitmap implements the bitmap index structures used for star query
// processing in the MDHF study (VLDB 2000, Section 3.2): plain bitsets,
// simple (one-bitmap-per-value) bitmap indices, and encoded bitmap join
// indices with the hierarchical encoding of Table 1.
package bitmap

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitset is a fixed-length sequence of bits backed by 64-bit words.
// The zero value is an empty bitset; use New to size one.
type Bitset struct {
	n     int
	words []uint64
}

// New returns a Bitset of n bits, all zero.
func New(n int) *Bitset {
	if n < 0 {
		panic("bitmap: negative size")
	}
	return &Bitset{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i to 1.
func (b *Bitset) Set(i int) {
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear sets bit i to 0.
func (b *Bitset) Clear(i int) {
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Get reports whether bit i is 1.
func (b *Bitset) Get(i int) bool {
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// SetAll sets every bit to 1.
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// Reset sets every bit to 0.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Reinit resizes b to n bits, all zero, reusing the backing array when it
// is large enough — the growth primitive of the per-worker scratch
// bitsets, allocation-free once warm.
func (b *Bitset) Reinit(n int) {
	if n < 0 {
		panic("bitmap: negative size")
	}
	k := (n + wordBits - 1) / wordBits
	if cap(b.words) < k {
		b.words = make([]uint64, k)
	} else {
		b.words = b.words[:k]
		for i := range b.words {
			b.words[i] = 0
		}
	}
	b.n = n
}

// SetRange sets every bit in [lo, hi) to 1, word-wise.
func (b *Bitset) SetRange(lo, hi int) {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("bitmap: range [%d,%d) out of range 0..%d", lo, hi, b.n))
	}
	if lo == hi {
		return
	}
	w0, w1 := lo/wordBits, (hi-1)/wordBits
	first := ^uint64(0) << uint(lo%wordBits)
	last := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if w0 == w1 {
		b.words[w0] |= first & last
		return
	}
	b.words[w0] |= first
	for w := w0 + 1; w < w1; w++ {
		b.words[w] = ^uint64(0)
	}
	b.words[w1] |= last
}

// trim zeroes the unused high bits of the last word so that population
// counts and comparisons stay exact.
func (b *Bitset) trim() {
	if r := b.n % wordBits; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(r)) - 1
	}
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{n: b.n, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// CopyFrom makes b a copy of o, reusing b's storage.
func (b *Bitset) CopyFrom(o *Bitset) {
	k := len(o.words)
	if cap(b.words) < k {
		b.words = make([]uint64, k)
	}
	b.words = b.words[:k]
	copy(b.words, o.words)
	b.n = o.n
}

func (b *Bitset) check(o *Bitset) {
	if b.n != o.n {
		panic(fmt.Sprintf("bitmap: length mismatch %d vs %d", b.n, o.n))
	}
}

// And sets b = b AND o in place.
func (b *Bitset) And(o *Bitset) {
	b.check(o)
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Or sets b = b OR o in place.
func (b *Bitset) Or(o *Bitset) {
	b.check(o)
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// AndNot sets b = b AND NOT o in place.
func (b *Bitset) AndNot(o *Bitset) {
	b.check(o)
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
}

// AndInto sets b = x AND y, reusing b's storage — the destination-reuse
// batch kernel of the fragment hot loops.
func (b *Bitset) AndInto(x, y *Bitset) {
	x.check(y)
	k := len(x.words)
	if cap(b.words) < k {
		b.words = make([]uint64, k)
	}
	b.words = b.words[:k]
	for i := range b.words {
		b.words[i] = x.words[i] & y.words[i]
	}
	b.n = x.n
}

// Xor sets b = b XOR o in place.
func (b *Bitset) Xor(o *Bitset) {
	b.check(o)
	for i := range b.words {
		b.words[i] ^= o.words[i]
	}
}

// Not inverts every bit in place.
func (b *Bitset) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.trim()
}

// OnesCount returns the number of 1 bits.
func (b *Bitset) OnesCount() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether b and o have identical contents and length.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn with the index of every set bit, in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(wi*wordBits + tz)
			w &= w - 1
		}
	}
}

// OrByte ORs the 8 bits of v into positions [base, base+8). base must be
// a multiple of 8 and bits of v beyond Len must be zero — the byte-wise
// deserialisation primitive.
func (b *Bitset) OrByte(base int, v byte) {
	b.words[base/wordBits] |= uint64(v) << uint(base%wordBits)
}

// Words returns the backing words, bit i in word i/64 (read-only): the
// batch aggregation loops walk a selection a word at a time.
func (b *Bitset) Words() []uint64 { return b.words }

// NextSet returns the index of the first set bit at or after i, or -1.
func (b *Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i / wordBits
	w := b.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// Slice returns a new Bitset containing bits [lo, hi) of b.
func (b *Bitset) Slice(lo, hi int) *Bitset {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("bitmap: slice [%d,%d) out of range 0..%d", lo, hi, b.n))
	}
	out := New(hi - lo)
	if lo == hi {
		return out
	}
	// Word-wise gather: output word i spans at most two source words.
	w0 := lo / wordBits
	off := uint(lo % wordBits)
	for i := range out.words {
		v := b.words[w0+i] >> off
		if off != 0 && w0+i+1 < len(b.words) {
			v |= b.words[w0+i+1] << (wordBits - off)
		}
		out.words[i] = v
	}
	out.trim()
	return out
}

// Bytes returns the storage size of the bitset in bytes (word-aligned).
func (b *Bitset) Bytes() int { return len(b.words) * 8 }
