package bitmap

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/schema"
)

// Property tests for the WAH codec and the kernels that read encoded
// words: every operation on Compressed is checked against the Bitset
// oracle across densities (all-zero, all-one, sparse, dense) and
// run-boundary lengths
// (n % 63 ∈ {0, 1, 62}).

// opTestLens covers the group-boundary cases: n % 63 ∈ {0, 1, 62}, plus
// sub-group and multi-word sizes.
var opTestLens = []int{1, 62, 63, 64, 125, 126, 127, 189, 630, 1000, 4096}

// opTestDensities spans all-zero through all-one.
var opTestDensities = []float64{0, 0.001, 0.01, 0.5, 0.99, 1}

func densityBitset(rng *rand.Rand, n int, density float64) *Bitset {
	b := New(n)
	switch density {
	case 0:
		return b
	case 1:
		b.SetAll()
		return b
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

// runnyBitset produces long runs of ones and zeros — the regime where run
// skipping matters.
func runnyBitset(rng *rand.Rand, n int) *Bitset {
	b := New(n)
	i := 0
	val := rng.Intn(2) == 1
	for i < n {
		runLen := 1 + rng.Intn(200)
		if i+runLen > n {
			runLen = n - i
		}
		if val {
			b.SetRange(i, i+runLen)
		}
		i += runLen
		val = !val
	}
	return b
}

func TestAndAllMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range opTestLens {
		for _, k := range []int{1, 2, 3, 5} {
			for trial := 0; trial < 4; trial++ {
				plain := make([]*Bitset, k)
				ops := make([]*Compressed, k)
				for i := range plain {
					if trial%2 == 0 {
						plain[i] = densityBitset(rng, n, opTestDensities[rng.Intn(len(opTestDensities))])
					} else {
						plain[i] = runnyBitset(rng, n)
					}
					ops[i] = Compress(plain[i])
				}
				want := plain[0].Clone()
				for _, p := range plain[1:] {
					want.And(p)
				}
				got := AndAllInto(nil, ops...).Decompress()
				if !got.Equal(want) {
					t.Fatalf("n=%d k=%d trial=%d: AndAllInto diverges from Bitset oracle", n, k, trial)
				}
			}
		}
	}
}

func TestAndAllIntoReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	scratch := &Compressed{}
	for trial := 0; trial < 20; trial++ {
		n := opTestLens[rng.Intn(len(opTestLens))]
		a := densityBitset(rng, n, 0.3)
		b := runnyBitset(rng, n)
		want := a.Clone()
		want.And(b)
		got := AndAllInto(scratch, Compress(a), Compress(b))
		if got != scratch {
			t.Fatalf("AndAllInto did not return its destination")
		}
		if !got.Decompress().Equal(want) {
			t.Fatalf("trial %d: AndAllInto with reused scratch diverges", trial)
		}
	}
}

func TestDecompressIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	dst := New(0)
	for trial := 0; trial < 30; trial++ {
		n := opTestLens[rng.Intn(len(opTestLens))]
		p := runnyBitset(rng, n)
		if got := Compress(p).DecompressInto(dst); !got.Equal(p) {
			t.Fatalf("trial %d n=%d: DecompressInto diverges", trial, n)
		}
	}
}

func TestAndIntoMatchesBitset(t *testing.T) {
	// dst AND c and dst AND NOT c, decoded group by group, against the
	// Bitset oracle on run-heavy and density-spanning operands.
	rng := rand.New(rand.NewSource(23))
	for _, n := range opTestLens {
		ops := []*Bitset{runnyBitset(rng, n), runnyBitset(rng, n)}
		for _, d := range opTestDensities {
			ops = append(ops, densityBitset(rng, n, d))
		}
		for _, acc := range ops {
			for _, op := range ops {
				for _, complement := range []bool{false, true} {
					got, want := acc.Clone(), acc.Clone()
					Compress(op).andInto(got, complement)
					if complement {
						want.AndNot(op)
					} else {
						want.And(op)
					}
					if !got.Equal(want) {
						t.Fatalf("n=%d complement=%v: andInto diverges from the Bitset oracle", n, complement)
					}
				}
			}
		}
	}
}

func TestCompressedSelectPartialIntoMatchesMaterialised(t *testing.T) {
	// Compressed SelectPartialInto ≡ materialised SelectPartialInto: same
	// rows, same bitmap count, for every member of every level under every
	// skip level, into one reused (so stale and wrongly sized) destination.
	// 63, 64 and 700 rows put the last group on, past and inside a word
	// boundary.
	dim := schema.Tiny().Dim(schema.DimProduct)
	layout := NewLayout(dim, nil)
	got, want := New(0), New(0)
	for _, rows := range []int{1, 62, 63, 64, 126, 700} {
		e := NewEncodedIndex(layout, buildRandomRows(dim, rows, 21))
		c := CompressEncodedIndex(e)
		for level := 0; level < len(layout.fieldBits); level++ {
			for skip := -1; skip < level; skip++ {
				for m := 0; m < layout.dim.Levels[level].Card; m++ {
					wantNB := e.SelectPartialInto(want, skip, level, m)
					if nb := c.SelectPartialInto(got, skip, level, m); nb != wantNB {
						t.Fatalf("rows=%d skip=%d level=%d m=%d: %d bitmaps evaluated, want %d", rows, skip, level, m, nb, wantNB)
					}
					if !got.Equal(want) {
						t.Fatalf("rows=%d skip=%d level=%d m=%d: compressed selection diverges", rows, skip, level, m)
					}
				}
			}
		}
	}
}

func TestCompressedSimpleIndexMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const card, rows = 7, 500
	vals := make([]int32, rows)
	for i := range vals {
		vals[i] = int32(rng.Intn(card))
	}
	s := NewSimpleIndex(card, vals)
	c := CompressSimpleIndex(s)
	if c.Card() != card || c.Rows() != rows {
		t.Fatalf("shape %d/%d, want %d/%d", c.Card(), c.Rows(), card, rows)
	}
	for m := 0; m < card; m++ {
		if !c.Bitmap(m).Decompress().Equal(s.Bitmap(m)) {
			t.Fatalf("member %d: compressed simple index diverges", m)
		}
		got, want := New(3), New(0)
		c.SelectInto(got, m)
		s.SelectInto(want, m)
		if !got.Equal(want) {
			t.Fatalf("member %d: compressed SelectInto diverges", m)
		}
	}
}

// FuzzCompressedOps cross-checks the codec and the kernels that read
// encoded words against the Bitset oracle on fuzzer-chosen lengths and
// bit patterns.
func FuzzCompressedOps(f *testing.F) {
	f.Add(uint16(63), uint64(0xdeadbeef), uint64(0x12345))
	f.Add(uint16(1), uint64(1), uint64(0))
	f.Add(uint16(126), ^uint64(0), uint64(0))
	f.Add(uint16(190), uint64(0xaaaaaaaaaaaaaaaa), uint64(0x5555555555555555))
	f.Fuzz(func(t *testing.T, nRaw uint16, seedA, seedB uint64) {
		n := int(nRaw)%2048 + 1
		rngA := rand.New(rand.NewSource(int64(seedA)))
		rngB := rand.New(rand.NewSource(int64(seedB)))
		a := runnyBitset(rngA, n)
		b := densityBitset(rngB, n, float64(seedB%100)/99)
		ca, cb := Compress(a), Compress(b)
		if !ca.DecompressInto(b.Clone()).Equal(a) {
			t.Fatal("DecompressInto over a dirty destination diverges")
		}
		andWant := a.Clone()
		andWant.And(b)
		if !AndAllInto(nil, ca, cb).Decompress().Equal(andWant) {
			t.Fatal("AndAllInto diverges")
		}
		anGot, anWant := b.Clone(), b.Clone()
		anWant.AndNot(a)
		if ca.andInto(anGot, true); !anGot.Equal(anWant) {
			t.Fatal("andInto complemented diverges")
		}
		// A destination holding more words and bits than the result must
		// come out exactly as a fresh encoding.
		dst := Compress(densityBitset(rngB, 2*n+126, 0.5))
		dirty := len(dst.Words())
		if got := CompressInto(dst, a); got.Len() != ca.Len() || !slices.Equal(got.Words(), ca.Words()) {
			t.Fatalf("CompressInto over %d dirty words: %x, Compress: %x", dirty, got.Words(), ca.Words())
		}
	})
}
