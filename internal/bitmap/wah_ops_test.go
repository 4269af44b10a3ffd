package bitmap

import (
	"math/rand"
	"slices"
	"testing"
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
					ops[i] = compress(plain[i])
				}
				want := clone(plain[0])
				for _, p := range plain[1:] {
					want.And(p)
				}
				got := decompress(AndAllInto(nil, ops...))
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
		want := clone(a)
		want.And(b)
		got := AndAllInto(scratch, compress(a), compress(b))
		if got != scratch {
			t.Fatalf("AndAllInto did not return its destination")
		}
		if !decompress(got).Equal(want) {
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
		if got := compress(p).DecompressInto(dst); !got.Equal(p) {
			t.Fatalf("trial %d n=%d: DecompressInto diverges", trial, n)
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
		ca, cb := compress(a), compress(b)
		if !ca.DecompressInto(clone(b)).Equal(a) {
			t.Fatal("DecompressInto over a dirty destination diverges")
		}
		andWant := clone(a)
		andWant.And(b)
		if !decompress(AndAllInto(nil, ca, cb)).Equal(andWant) {
			t.Fatal("AndAllInto diverges")
		}
		// A destination holding more words and bits than the result must
		// come out exactly as a fresh encoding.
		dst := compress(densityBitset(rngB, 2*n+126, 0.5))
		dirty := len(dst.Words())
		if got := CompressInto(dst, a); got.Len() != ca.Len() || !slices.Equal(got.Words(), ca.Words()) {
			t.Fatalf("CompressInto over %d dirty words: %x, Compress: %x", dirty, got.Words(), ca.Words())
		}
	})
}
