package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/data"
	"repro/internal/frag"
	"repro/internal/schema"
)

// TestIndexWordsPinned pins the words of every index bitmap the engine
// builds for the benchmark's shape (APB1Scaled(60), seed 1, FMonthGroup,
// APB-1 indexes): fragments in id order, then per dimension its encoded
// bitmaps or its simple levels' member bitmaps. The digest was taken
// before builders encoded each leaf member once through a code table.
func TestIndexWordsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an APB1Scaled(60) engine")
	}
	s := schema.APB1Scaled(60)
	e, err := Build(data.MustGenerate(s, 1), frag.MustParse(s, "time::month, product::group"), frag.APB1Indexes(s))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var w [8]byte
	put := func(b *bitmap.Bitset) {
		binary.LittleEndian.PutUint64(w[:], uint64(b.Len()))
		h.Write(w[:])
		for _, x := range b.Words() {
			binary.LittleEndian.PutUint64(w[:], x)
			h.Write(w[:])
		}
	}
	ids := make([]int64, 0, len(e.frags))
	for id := range e.frags {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	bitmaps := 0
	for _, id := range ids {
		f := e.frags[id]
		for d := range s.Dims {
			if ix := f.encoded[d]; ix != nil {
				for j := 0; j < e.layouts[d].TotalBits(); j++ {
					put(ix.Bitmap(j))
					bitmaps++
				}
			}
			for l, ix := range f.simple[d] {
				for m := 0; ix != nil && m < s.Dims[d].Levels[l].Card; m++ {
					put(ix.Bitmap(m))
					bitmaps++
				}
			}
		}
	}
	got := fmt.Sprintf("%d fragments, %d bitmaps, %x", len(ids), bitmaps, h.Sum(nil))
	if want := "192 fragments, 3648 bitmaps, 92b0d45e0e9f6dffa7aef45332273a7a6088feb05b78cb1dafe4eb3d891b9397"; got != want {
		t.Errorf("index words = %s, want %s", got, want)
	}
}
