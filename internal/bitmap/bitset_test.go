package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Set/Get mismatch")
	}
	if got := b.OnesCount(); got != 3 {
		t.Fatalf("OnesCount = %d, want 3", got)
	}
}

// clone returns a deep copy of b.
func clone(b *Bitset) *Bitset {
	c := New(b.Len())
	c.CopyFrom(b)
	return c
}

func TestBitsetSetAllNotTrims(t *testing.T) {
	b := New(70)
	b.SetAll()
	if got := b.OnesCount(); got != 70 {
		t.Fatalf("SetAll OnesCount = %d, want 70", got)
	}
	b.Not()
	if got := b.OnesCount(); got != 0 {
		t.Fatalf("Not(all) OnesCount = %d, want 0", got)
	}
	b.Not()
	if got := b.OnesCount(); got != 70 {
		t.Fatalf("Not(none) OnesCount = %d, want 70", got)
	}
}

func TestBitsetBooleanOps(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	and := clone(a)
	and.And(b)
	for i := 0; i < 100; i++ {
		if and.Get(i) != (i%2 == 0 && i%3 == 0) {
			t.Fatalf("And bit %d wrong", i)
		}
	}
	an := clone(a)
	an.AndNot(b)
	for i := 0; i < 100; i++ {
		if an.Get(i) != (i%2 == 0 && i%3 != 0) {
			t.Fatalf("AndNot bit %d wrong", i)
		}
	}
}

func TestBitsetForEachAndNextSet(t *testing.T) {
	b := New(200)
	want := []int{3, 64, 65, 127, 128, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach got %v, want %v", got, want)
		}
	}
	if n := b.NextSet(0); n != 3 {
		t.Errorf("NextSet(0) = %d", n)
	}
	if n := b.NextSet(4); n != 64 {
		t.Errorf("NextSet(4) = %d", n)
	}
	if n := b.NextSet(129); n != 199 {
		t.Errorf("NextSet(129) = %d", n)
	}
	if n := b.NextSet(200); n != -1 {
		t.Errorf("NextSet(200) = %d", n)
	}
}

func TestBitsetEqualAndAny(t *testing.T) {
	a := New(65)
	b := New(65)
	if !a.Equal(b) || a.OnesCount() != 0 {
		t.Fatal("fresh bitsets should be equal and empty")
	}
	a.Set(64)
	if a.Equal(b) || a.OnesCount() == 0 {
		t.Fatal("Equal/OnesCount after Set wrong")
	}
	if a.Equal(New(64)) {
		t.Fatal("different lengths must not be equal")
	}
}

func TestBitsetLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10).And(New(11))
}

// Property: De Morgan — NOT(a AND b) has exactly the bits of NOT a OR NOT b.
func TestBitsetDeMorgan(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		size := int(n)%500 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := New(size), New(size)
		for i := 0; i < size; i++ {
			if rng.Intn(2) == 1 {
				a.Set(i)
			}
			if rng.Intn(2) == 1 {
				b.Set(i)
			}
		}
		left := clone(a)
		left.And(b)
		left.Not()
		for i := 0; i < size; i++ {
			if left.Get(i) != (!a.Get(i) || !b.Get(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: OnesCount(a) == OnesCount(a AND NOT b) + OnesCount(a AND b).
func TestBitsetInclusionExclusion(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		size := int(n)%1000 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := New(size), New(size)
		for i := 0; i < size; i++ {
			if rng.Intn(3) == 0 {
				a.Set(i)
			}
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		andNot := clone(a)
		andNot.AndNot(b)
		and := clone(a)
		and.And(b)
		return a.OnesCount() == andNot.OnesCount()+and.OnesCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
