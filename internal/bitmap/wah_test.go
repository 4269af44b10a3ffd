package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// compress and decompress are the allocating round trip through
// CompressInto and DecompressInto.
func compress(b *Bitset) *Compressed { return CompressInto(&Compressed{}, b) }

func decompress(c *Compressed) *Bitset { return c.DecompressInto(New(c.Len())) }

func randomBitset(n int, density float64, seed int64) *Bitset {
	rng := rand.New(rand.NewSource(seed))
	b := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

func TestCompressRoundTripVarious(t *testing.T) {
	cases := []struct {
		n       int
		density float64
	}{
		{0, 0}, {1, 1}, {63, 0.5}, {64, 0.5}, {126, 0}, {127, 1},
		{1000, 0.001}, {1000, 0.999}, {10_000, 0.5}, {100_000, 0.0001},
	}
	for _, c := range cases {
		b := randomBitset(c.n, c.density, int64(c.n)+1)
		got := decompress(compress(b))
		if !got.Equal(b) {
			t.Fatalf("n=%d density=%g: round trip mismatch", c.n, c.density)
		}
	}
}

func TestCompressRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16, dRaw uint8) bool {
		n := int(nRaw)%5000 + 1
		density := float64(dRaw) / 255
		b := randomBitset(n, density, seed)
		c := compress(b)
		if c.Len() != n {
			return false
		}
		return decompress(c).Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionRatioOnSparseBitmaps(t *testing.T) {
	// A sparse bitmap (one product code of 14,400 -> selectivity 7e-5)
	// must compress dramatically; a dense random one must not explode.
	n := 1 << 20
	sparse := New(n)
	for i := 0; i < n; i += 14_400 {
		sparse.Set(i)
	}
	cs := compress(sparse)
	if ratio := float64(cs.Bytes()) / float64(8*len(sparse.Words())); ratio > 0.01 {
		t.Errorf("sparse compression ratio = %.4f, want < 0.01", ratio)
	}

	dense := randomBitset(n, 0.5, 9)
	cd := compress(dense)
	if ratio := float64(cd.Bytes()) / float64(8*len(dense.Words())); ratio > 1.05 {
		t.Errorf("dense compression ratio = %.3f, want <= ~1.02", ratio)
	}
}

func TestCompressAllOnesAllZeros(t *testing.T) {
	n := 100_000
	zeros := New(n)
	cz := compress(zeros)
	if cz.Bytes() > 16 {
		t.Errorf("all-zero bitmap compressed to %d bytes", cz.Bytes())
	}
	if !decompress(cz).Equal(zeros) {
		t.Error("all-zero round trip failed")
	}
	ones := New(n)
	ones.SetAll()
	co := compress(ones)
	if co.Bytes() > 16 {
		t.Errorf("all-one bitmap compressed to %d bytes", co.Bytes())
	}
	if !decompress(co).Equal(ones) {
		t.Error("all-one round trip failed")
	}
}

func TestCompressedAndPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AndAllInto(nil, compress(New(10)), compress(New(11)))
}

func TestCompressedStarJoinIntersection(t *testing.T) {
	// The 1MONTH1GROUP pattern on compressed bitmaps: month bitmap
	// (1/24 dense runs) AND group bitmap (sparse) — results must equal the
	// uncompressed path.
	n := 240_000
	month := New(n)
	for i := 0; i < n; i++ {
		if (i/200)%24 == 3 { // month 3, clustered in page-sized runs
			month.Set(i)
		}
	}
	group := randomBitset(n, 1.0/480, 5)
	want := clone(month)
	want.And(group)
	got := decompress(AndAllInto(nil, compress(month), compress(group)))
	if !got.Equal(want) {
		t.Fatal("compressed star join intersection mismatch")
	}
}
