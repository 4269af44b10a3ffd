package frag

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/schema"
)

func tinyDelta(t testing.TB) (*schema.Star, *Spec, *DeltaIndex) {
	t.Helper()
	star := schema.Tiny()
	spec := MustParse(star, "time::month, product::group")
	ix, err := NewDeltaIndex(spec, APB1Indexes(star))
	if err != nil {
		t.Fatal(err)
	}
	return star, spec, ix
}

// randomLeavesFor returns a random row routed to the given fragment
// coordinate: leaf members drawn uniformly, then the fragmentation
// dimensions constrained to descendants of the coordinate's members.
func randomLeavesFor(rng *rand.Rand, star *schema.Star, spec *Spec, frag int64) []int32 {
	coord := spec.Coord(frag)
	leaves := make([]int32, len(star.Dims))
	for d := range star.Dims {
		dim := &star.Dims[d]
		lo, hi := 0, dim.LeafCard()
		if ai := spec.AttrOfDim(d); ai != -1 {
			lo, hi = dim.DescendantRange(spec.Attrs()[ai].Level, coord[ai], dim.Leaf())
		}
		leaves[d] = int32(lo + rng.Intn(hi-lo))
	}
	return leaves
}

func buildSegment(rng *rand.Rand, star *schema.Star, spec *Spec, ix *DeltaIndex, frag int64, rows int, seq uint64) *DeltaSegment {
	sb := ix.NewSegment(frag)
	for i := 0; i < rows; i++ {
		sb.Add(randomLeavesFor(rng, star, spec, frag), int64(rng.Intn(100)), int64(rng.Intn(1000)), int64(rng.Intn(500)))
	}
	return sb.Seal(seq)
}

// TestSelectMatchesScan checks delta row selection (Ranges, Selects)
// against a direct per-row scan with the schema's Ancestor arithmetic.
func TestSelectMatchesScan(t *testing.T) {
	star, spec, ix := tinyDelta(t)
	rng := rand.New(rand.NewSource(12))
	sc := NewDeltaScratch()
	valid := 0
	for trial := 0; valid < 200 && trial < 5000; trial++ {
		frag := rng.Int63n(spec.NumFragments())
		// Random query: up to one predicate per dimension.
		var q Query
		for d := range star.Dims {
			if rng.Intn(2) == 0 {
				continue
			}
			dim := &star.Dims[d]
			lvl := rng.Intn(dim.Depth())
			q.Preds = append(q.Preds, Pred{Dim: d, Level: lvl, Member: rng.Intn(dim.Levels[lvl].Card)})
		}
		// Ranges assume fragment confinement, exactly like the executor:
		// only fragments in FragmentIDs(q) are ever selected against.
		relevant := false
		for _, id := range spec.FragmentIDs(q) {
			if id == frag {
				relevant = true
				break
			}
		}
		if !relevant {
			continue
		}
		valid++
		seg := buildSegment(rng, star, spec, ix, frag, 1+rng.Intn(150), 1)
		ranges := ix.Ranges(q, sc)
		want := make([]bool, seg.Rows())
		for i := range want {
			want[i] = true
			for _, p := range q.Preds {
				if !spec.NeedsBitmap(p) {
					continue // confinement: no bitmap, no per-row test
				}
				dim := &star.Dims[p.Dim]
				if dim.Ancestor(dim.Leaf(), int(seg.Leaves(p.Dim)[i]), p.Level) != p.Member {
					want[i] = false
					break
				}
			}
		}
		for i := range want {
			if got := seg.Selects(ranges, i); got != want[i] {
				t.Fatalf("trial %d row %d: got %v want %v (query %+v)", trial, i, got, want[i], q)
			}
		}
	}
}

// TestDeltaSetCopyOnWrite checks snapshot isolation of With, WithBatch
// and After: a batch appends to its fragments' lists, two batches on one
// set never see each other's segments (even two segments of a fragment
// in one batch, whose list grows inside the call), and After keeps the
// segments past the boundary.
func TestDeltaSetCopyOnWrite(t *testing.T) {
	star, spec, ix := tinyDelta(t)
	rng := rand.New(rand.NewSource(14))
	var s *DeltaSet
	if s.Rows() != 0 || s.Segments() != 0 || s.MaxSeq() != 0 || s.Of(0) != nil {
		t.Fatal("nil set is not empty")
	}
	segA := buildSegment(rng, star, spec, ix, 3, 10, 1)
	segB := buildSegment(rng, star, spec, ix, 3, 5, 2)
	segC := buildSegment(rng, star, spec, ix, 7, 4, 3)
	s1 := s.With(segA)
	s2 := s1.With(segB).With(segC)
	if s1.Rows() != 10 || s1.Segments() != 1 || s1.MaxSeq() != 1 {
		t.Fatalf("s1 = %d rows %d segs", s1.Rows(), s1.Segments())
	}
	if s2.Rows() != 19 || s2.Segments() != 3 || s2.MaxSeq() != 3 || s2.Fragments() != 2 {
		t.Fatalf("s2 = %d rows %d segs %d frags", s2.Rows(), s2.Segments(), s2.Fragments())
	}
	if len(s1.Of(3)) != 1 {
		t.Fatal("s1 sees s2's appends")
	}
	// Two batches on s2, the first with two segments of fragment 3.
	segD := buildSegment(rng, star, spec, ix, 3, 1, 4)
	segE := buildSegment(rng, star, spec, ix, 3, 2, 5)
	segF := buildSegment(rng, star, spec, ix, 3, 3, 4)
	s3 := s2.WithBatch([]*DeltaSegment{segD, segE})
	s3b := s2.WithBatch([]*DeltaSegment{segF})
	if s3.Rows() != 22 || s3.Segments() != 5 || s3.MaxSeq() != 5 {
		t.Fatalf("s3 = %d rows %d segs maxSeq %d", s3.Rows(), s3.Segments(), s3.MaxSeq())
	}
	if got, want := s3.Of(3), []*DeltaSegment{segA, segB, segD, segE}; !slices.Equal(got, want) {
		t.Fatalf("s3 fragment 3 = %v, want %v", got, want)
	}
	if got, want := s3b.Of(3), []*DeltaSegment{segA, segB, segF}; !slices.Equal(got, want) {
		t.Fatalf("s3b fragment 3 = %v, want %v", got, want)
	}
	if len(s2.Of(3)) != 2 || s3.Of(7)[0] != segC {
		t.Fatal("a batch leaked across snapshots")
	}
	// After(2): segC (seq 3), segD and segE (4, 5) survive.
	s4 := s3.After(2)
	if s4.Segments() != 3 || s4.Rows() != int64(segC.Rows()+segD.Rows()+segE.Rows()) || s4.MaxSeq() != 5 {
		t.Fatalf("After(2): %d segs %d rows maxSeq %d", s4.Segments(), s4.Rows(), s4.MaxSeq())
	}
	if s3.After(5) != nil {
		t.Fatal("After(maxSeq) should be nil")
	}
	// Deterministic iteration order: ascending fragment, then seal order.
	var order []uint64
	s3.ForEachSegment(func(seg *DeltaSegment) { order = append(order, seg.Seq()) })
	if wantOrder := []uint64{1, 2, 4, 5, 3}; !slices.Equal(order, wantOrder) {
		t.Fatalf("iteration order %v, want %v", order, wantOrder)
	}
}
