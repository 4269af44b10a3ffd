package bitmap

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/schema"
)

// TestLayoutCodes checks the code table against Encode and Decode for
// every leaf of every dimension of the paper's schemas, with minimal and
// with padded fields.
func TestLayoutCodes(t *testing.T) {
	for _, s := range []*schema.Star{schema.APB1(), schema.APB1Scaled(60), schema.Tiny()} {
		for di := range s.Dims {
			d := &s.Dims[di]
			pad := make([]int, d.Depth())
			for i := range pad {
				pad[i] = i%2 + 1
			}
			for _, padBits := range [][]int{nil, pad} {
				l := NewLayout(d, padBits)
				codes := l.Codes()
				if len(codes) != d.LeafCard() {
					t.Fatalf("%s %s pad %v: %d codes for %d leaves", s.Name, d.Name, padBits, len(codes), d.LeafCard())
				}
				for m, c := range codes {
					if c != l.Encode(m) || l.decode(c) != m {
						t.Fatalf("%s %s pad %v: Codes()[%d] = %b, Encode = %b, Decode = %d",
							s.Name, d.Name, padBits, m, c, l.Encode(m), l.decode(c))
					}
				}
			}
		}
	}
}

// TestLayoutCodesConcurrentFirstUse makes the first Codes call on one
// layout from eight goroutines: under -race the table is filled once and
// every caller reads the same, complete table.
func TestLayoutCodesConcurrentFirstUse(t *testing.T) {
	l := NewLayout(schema.APB1().Dim(schema.DimProduct), nil)
	got := make([][]uint64, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = l.Codes()
		}()
	}
	wg.Wait()
	for g, codes := range got {
		if &codes[0] != &got[0][0] {
			t.Fatalf("goroutine %d got a table of its own", g)
		}
		if m := len(codes) - 1; codes[m] != l.Encode(m) {
			t.Fatalf("goroutine %d: last code %b, want %b", g, codes[m], l.Encode(m))
		}
	}
}

// FuzzBitmapBuild checks FromKeys against a per-row Set reference over
// any key column, for both rules — a bit of any code table, and any
// leaf range — into a dirty destination: the bits equal the reference
// and the padding past Len stays zero.
func FuzzBitmapBuild(f *testing.F) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 1000} {
		raw := make([]byte, 2*n) // keys -2..6: both sides of both range ends
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint16(raw[2*i:], uint16(int16(i%9-2)))
		}
		f.Add(raw, uint16(7), int64(n), uint8(2), int32(1), int32(4), uint16(n+70))
	}
	f.Add([]byte{0xff, 0xff, 0x00, 0x80, 0x7f, 0xff, 3, 0}, uint16(1), int64(1), uint8(63), int32(-1), int32(1), uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, nCodes uint16, seed int64, shift uint8, lo, hi int32, dirty uint16) {
		keys := make([]int32, len(raw)/2)
		for i := range keys {
			keys[i] = int32(int16(binary.LittleEndian.Uint16(raw[2*i:])))
		}
		codes := make([]uint64, int(nCodes)%300+1)
		rng := rand.New(rand.NewSource(seed))
		for i := range codes {
			codes[i] = rng.Uint64()
		}
		inCodes := make([]int32, len(keys))
		for i, k := range keys {
			inCodes[i] = int32(uint32(k) % uint32(len(codes)))
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, tc := range []struct {
			keys []int32
			rule KeyRule
			in   func(k int32) bool
		}{
			{inCodes, KeyRule{Codes: codes, Shift: uint(shift % 64)}, func(k int32) bool { return codes[k]>>(shift%64)&1 == 1 }},
			{keys, KeyRule{Lo: lo, Hi: hi}, func(k int32) bool { return lo <= k && k < hi }},
		} {
			want := New(len(tc.keys))
			for i, k := range tc.keys {
				if tc.in(k) {
					want.Set(i)
				}
			}
			got := New(int(dirty))
			got.SetAll()
			got.FromKeys(tc.keys, tc.rule)
			if !got.Equal(want) {
				t.Fatalf("rule %+v over %d keys: FromKeys %x, per-row Set %x", tc.rule, len(tc.keys), got.Words(), want.Words())
			}
			if r := got.Len() % wordBits; r != 0 {
				if pad := got.Words()[len(got.Words())-1] >> uint(r); pad != 0 {
					t.Fatalf("rule %+v over %d keys: padding bits %x set", tc.rule, len(tc.keys), pad)
				}
			}
		}
	})
}
