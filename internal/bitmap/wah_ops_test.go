package bitmap

import (
	"math/rand"
	"testing"

	"repro/internal/schema"
)

// Property tests for the compressed execution kernels: every operation on
// Compressed is checked against the Bitset oracle across densities
// (all-zero, all-one, sparse, dense) and run-boundary lengths
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
				got := AndAll(ops...).Decompress()
				if !got.Equal(want) {
					t.Fatalf("n=%d k=%d trial=%d: AndAll diverges from Bitset oracle", n, k, trial)
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

func TestAndNotMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range opTestLens {
		for _, da := range opTestDensities {
			for _, db := range opTestDensities {
				pa := densityBitset(rng, n, da)
				pb := densityBitset(rng, n, db)
				want := pa.Clone()
				want.AndNot(pb)
				got := AndNot(Compress(pa), Compress(pb)).Decompress()
				if !got.Equal(want) {
					t.Fatalf("n=%d da=%g db=%g: AndNot diverges", n, da, db)
				}
			}
		}
		a := runnyBitset(rng, n)
		b := runnyBitset(rng, n)
		want := a.Clone()
		want.AndNot(b)
		if got := AndNot(Compress(a), Compress(b)).Decompress(); !got.Equal(want) {
			t.Fatalf("n=%d: AndNot diverges on runny inputs", n)
		}
	}
}

func TestNotMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range opTestLens {
		for _, d := range opTestDensities {
			p := densityBitset(rng, n, d)
			want := p.Clone()
			want.Not()
			nc := Not(Compress(p))
			if got := nc.Decompress(); !got.Equal(want) {
				t.Fatalf("n=%d d=%g: Not diverges", n, d)
			}
			if nc.OnesCount() != want.OnesCount() {
				t.Fatalf("n=%d d=%g: Not OnesCount %d != %d (padding bits leaked?)",
					n, d, nc.OnesCount(), want.OnesCount())
			}
		}
	}
}

func TestOrMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range opTestLens {
		for _, da := range opTestDensities {
			for _, db := range opTestDensities {
				pa := densityBitset(rng, n, da)
				pb := densityBitset(rng, n, db)
				want := pa.Clone()
				want.Or(pb)
				got := Or(Compress(pa), Compress(pb)).Decompress()
				if !got.Equal(want) {
					t.Fatalf("n=%d da=%g db=%g: Or diverges", n, da, db)
				}
			}
		}
	}
}

func TestForEachAndRangesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range opTestLens {
		for _, d := range opTestDensities {
			for _, runny := range []bool{false, true} {
				var p *Bitset
				if runny {
					p = runnyBitset(rng, n)
				} else {
					p = densityBitset(rng, n, d)
				}
				c := Compress(p)
				var want, got []int
				p.ForEach(func(i int) { want = append(want, i) })
				c.ForEach(func(i int) { got = append(got, i) })
				if len(want) != len(got) {
					t.Fatalf("n=%d d=%g runny=%v: ForEach yields %d bits, oracle %d", n, d, runny, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("n=%d d=%g runny=%v: ForEach bit %d = %d, oracle %d", n, d, runny, i, got[i], want[i])
					}
				}
				// Ranges must be maximal, ascending, non-adjacent.
				prevHi := -1
				total := 0
				c.ForEachRange(func(lo, hi int) {
					if lo >= hi || lo <= prevHi {
						t.Fatalf("n=%d: bad range [%d,%d) after hi=%d", n, lo, hi, prevHi)
					}
					if lo > 0 && p.Get(lo-1) || hi < n && p.Get(hi) {
						t.Fatalf("n=%d: range [%d,%d) not maximal", n, lo, hi)
					}
					for i := lo; i < hi; i++ {
						if !p.Get(i) {
							t.Fatalf("n=%d: range [%d,%d) covers clear bit %d", n, lo, hi, i)
						}
					}
					prevHi = hi
					total += hi - lo
				})
				if total != p.OnesCount() {
					t.Fatalf("n=%d: ranges cover %d bits, oracle %d", n, total, p.OnesCount())
				}
			}
		}
	}
}

func TestCompressedOnes(t *testing.T) {
	for _, n := range opTestLens {
		c := CompressedOnes(n)
		if c.OnesCount() != n {
			t.Fatalf("n=%d: CompressedOnes counts %d", n, c.OnesCount())
		}
		all := New(n)
		all.SetAll()
		if !c.Decompress().Equal(all) {
			t.Fatalf("n=%d: CompressedOnes decompresses wrong", n)
		}
	}
}

func TestCompressedAny(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range opTestLens {
		if Compress(New(n)).Any() {
			t.Fatalf("n=%d: empty bitmap reports Any", n)
		}
		p := New(n)
		p.Set(rng.Intn(n))
		if !Compress(p).Any() {
			t.Fatalf("n=%d: one-bit bitmap reports !Any", n)
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

// FuzzCompressedOps cross-checks the compressed kernels against the Bitset
// oracle on fuzzer-chosen lengths and bit patterns.
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
		andWant := a.Clone()
		andWant.And(b)
		if !AndAll(ca, cb).Decompress().Equal(andWant) {
			t.Fatal("AndAll diverges")
		}
		notWant := a.Clone()
		notWant.Not()
		if !Not(ca).Decompress().Equal(notWant) {
			t.Fatal("Not diverges")
		}
		anWant := a.Clone()
		anWant.AndNot(b)
		if !AndNot(ca, cb).Decompress().Equal(anWant) {
			t.Fatal("AndNot diverges")
		}
		count := 0
		ca.ForEachRange(func(lo, hi int) { count += hi - lo })
		if count != a.OnesCount() {
			t.Fatalf("ForEachRange covers %d bits, oracle %d", count, a.OnesCount())
		}
	})
}
