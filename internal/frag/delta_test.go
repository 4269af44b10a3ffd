package frag

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitmap"
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

// TestSegmentBitmapsMatchBatchEncoding checks that the incrementally
// built segment bitmaps equal the batch Compress encoding of the same
// bit pattern — the property the base/delta equivalence rests on.
func TestSegmentBitmapsMatchBatchEncoding(t *testing.T) {
	star, spec, ix := tinyDelta(t)
	rng := rand.New(rand.NewSource(11))
	for frag := int64(0); frag < spec.NumFragments(); frag += 3 {
		rows := 1 + rng.Intn(200)
		sb := ix.NewSegment(frag)
		var leavesOf [][]int32
		for i := 0; i < rows; i++ {
			l := randomLeavesFor(rng, star, spec, frag)
			leavesOf = append(leavesOf, l)
			sb.Add(l, 1, 2, 3)
		}
		seg := sb.Seal(1)
		for bi, desc := range ix.descs {
			want := bitmap.New(rows)
			for i, l := range leavesOf {
				if ix.bitOf(desc, l[desc.Dim]) {
					want.Set(i)
				}
			}
			wc := bitmap.Compress(want)
			got := seg.Bitmap(bi)
			if got.Len() != wc.Len() || len(got.Words()) != len(wc.Words()) {
				t.Fatalf("frag %d desc %d: encoding shape differs", frag, bi)
			}
			for wi := range wc.Words() {
				if got.Words()[wi] != wc.Words()[wi] {
					t.Fatalf("frag %d desc %d word %d: got %#x want %#x", frag, bi, wi, got.Words()[wi], wc.Words()[wi])
				}
			}
		}
	}
}

// TestSelectMatchesScan checks delta predicate selection against a
// direct per-row scan with the schema's Ancestor arithmetic.
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
		// Select assumes fragment confinement, exactly like the executor:
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
		res, all, err := ix.Select(seg, q, sc)
		if err != nil {
			t.Fatal(err)
		}
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
		got := make([]bool, seg.Rows())
		if all {
			for i := range got {
				got[i] = true
			}
		} else {
			res.ForEach(func(i int) { got[i] = true })
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d row %d: got %v want %v (query %+v)", trial, i, got[i], want[i], q)
			}
		}
	}
}

// TestExtendSegmentEquivalence checks that sealing an extension of a
// sealed segment yields the same content and bitmap encodings as one
// continuous build — and leaves the original segment untouched.
func TestExtendSegmentEquivalence(t *testing.T) {
	star, spec, ix := tinyDelta(t)
	rng := rand.New(rand.NewSource(13))
	frag := int64(5)
	var rows [][]int32
	for i := 0; i < 137; i++ {
		rows = append(rows, randomLeavesFor(rng, star, spec, frag))
	}
	oneShot := ix.NewSegment(frag)
	for i, l := range rows {
		oneShot.Add(l, int64(i), int64(2*i), int64(3*i))
	}
	want := oneShot.Seal(9)

	for _, split := range []int{0, 1, 50, 136, 137} {
		if split == 0 {
			continue // ExtendSegment needs a sealed prefix
		}
		sb := ix.NewSegment(frag)
		for i := 0; i < split; i++ {
			sb.Add(rows[i], int64(i), int64(2*i), int64(3*i))
		}
		first := sb.Seal(1)
		firstRows := first.Rows()
		firstWords := append([]uint64(nil), first.Bitmap(0).Words()...)
		ext := ix.ExtendSegment(first)
		for i := split; i < len(rows); i++ {
			ext.Add(rows[i], int64(i), int64(2*i), int64(3*i))
		}
		got := ext.Seal(9)
		if got.Rows() != want.Rows() {
			t.Fatalf("split %d: rows %d want %d", split, got.Rows(), want.Rows())
		}
		for bi := range ix.descs {
			gw, ww := got.Bitmap(bi).Words(), want.Bitmap(bi).Words()
			if len(gw) != len(ww) {
				t.Fatalf("split %d desc %d: %d words want %d", split, bi, len(gw), len(ww))
			}
			for wi := range ww {
				if gw[wi] != ww[wi] {
					t.Fatalf("split %d desc %d word %d differs", split, bi, wi)
				}
			}
		}
		for i := range rows {
			if got.Units()[i] != int64(i) || got.Dollars()[i] != int64(2*i) || got.Costs()[i] != int64(3*i) {
				t.Fatalf("split %d row %d: measures differ", split, i)
			}
		}
		// The sealed prefix must be unchanged.
		if first.Rows() != firstRows || len(first.Bitmap(0).Words()) != len(firstWords) {
			t.Fatalf("split %d: extension mutated the sealed segment", split)
		}
	}
}

// TestDeltaSetCopyOnWrite checks snapshot isolation of With,
// WithTailReplaced and After.
func TestDeltaSetCopyOnWrite(t *testing.T) {
	star, spec, ix := tinyDelta(t)
	rng := rand.New(rand.NewSource(14))
	var s *DeltaSet
	if s.Rows() != 0 || s.Segments() != 0 || s.MaxSeq() != 0 || s.Of(0) != nil || s.Tail(0) != nil {
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
	// Replace fragment 3's tail with an extension.
	ext := ix.ExtendSegment(segB)
	ext.Add(randomLeavesFor(rng, star, spec, 3), 1, 1, 1)
	segB2 := ext.Seal(4)
	s3 := s2.WithTailReplaced(segB2)
	if s3.Rows() != 20 || s3.Segments() != 3 {
		t.Fatalf("s3 = %d rows %d segs", s3.Rows(), s3.Segments())
	}
	if s2.Tail(3) != segB || s3.Tail(3) != segB2 {
		t.Fatal("tail replacement leaked across snapshots")
	}
	// After(2): only segC (seq 3) and segB2 (seq 4) survive.
	s4 := s3.After(2)
	if s4.Segments() != 2 || s4.Rows() != int64(segC.Rows()+segB2.Rows()) || s4.MaxSeq() != 4 {
		t.Fatalf("After(2): %d segs %d rows maxSeq %d", s4.Segments(), s4.Rows(), s4.MaxSeq())
	}
	if s3.After(4) != nil {
		t.Fatal("After(maxSeq) should be nil")
	}
	// Deterministic iteration order: ascending fragment, then seal order.
	var order []uint64
	s3.ForEachSegment(func(seg *DeltaSegment) { order = append(order, seg.Seq()) })
	wantOrder := []uint64{1, 4, 3}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("iteration order %v, want %v", order, wantOrder)
		}
	}
}

// sameSegment fails unless got holds exactly the rows and bitmaps of a
// segment built in one go from the first n of the given rows (row i
// carries the measures i, 2i, 3i).
func sameSegment(t *testing.T, what string, ix *DeltaIndex, got *DeltaSegment, rows [][]int32, n int) {
	t.Helper()
	sb := ix.NewSegment(got.Frag())
	for i := 0; i < n; i++ {
		sb.Add(rows[i], int64(i), int64(2*i), int64(3*i))
	}
	want := sb.Seal(got.Seq())
	if got.Rows() != n || len(got.Units()) != n || len(got.Dollars()) != n || len(got.Costs()) != n {
		t.Errorf("%s: %d rows, columns of %d/%d/%d, want %d", what, got.Rows(), len(got.Units()), len(got.Dollars()), len(got.Costs()), n)
		return
	}
	for i := 0; i < n; i++ {
		if got.Units()[i] != want.Units()[i] || got.Dollars()[i] != want.Dollars()[i] || got.Costs()[i] != want.Costs()[i] {
			t.Errorf("%s: row %d measures differ", what, i)
			return
		}
		for d := range rows[i] {
			if got.Leaves(d)[i] != rows[i][d] {
				t.Errorf("%s: row %d dimension %d differs", what, i, d)
				return
			}
		}
	}
	for bi := range ix.descs {
		if !slices.Equal(got.Bitmap(bi).Words(), want.Bitmap(bi).Words()) || got.Bitmap(bi).Len() != n {
			t.Errorf("%s: bitmap %d differs", what, bi)
			return
		}
	}
}

// TestExtendSegmentGrowsInPlace: extensions write into the spare
// capacity of the arrays the sealed segments of the chain share, so a
// reader holding any earlier segment of the chain keeps reading exactly
// its own prefix while the arrays grow under it (run under -race: the
// readers and the extending writer touch the same arrays, never the same
// elements); and rows of an extension that was abandoned — built, even
// sealed, but never published — are overwritten by the next extension of
// the same segment, never exposed.
func TestExtendSegmentGrowsInPlace(t *testing.T) {
	star, spec, ix := tinyDelta(t)
	rng := rand.New(rand.NewSource(17))
	const frag, first, step, extensions = 5, 40, 8, 120
	var rows [][]int32
	for i := 0; i < first+step*extensions+step; i++ {
		rows = append(rows, randomLeavesFor(rng, star, spec, frag))
	}
	extend := func(seg *DeltaSegment, from [][]int32, n int) *DeltaSegment {
		sb := ix.ExtendSegment(seg)
		for i := 0; i < n; i++ {
			r := seg.Rows() + i
			sb.Add(from[r], int64(r), int64(2*r), int64(3*r))
		}
		return sb.Seal(seg.Seq() + 1)
	}
	sb := ix.NewSegment(frag)
	for i := 0; i < first; i++ {
		sb.Add(rows[i], int64(i), int64(2*i), int64(3*i))
	}
	tail := sb.Seal(1)

	// An abandoned extension with rows of its own, then the real one.
	junk := make([][]int32, len(rows))
	for i := range junk {
		junk[i] = randomLeavesFor(rng, star, spec, frag)
	}
	abandoned := extend(tail, junk, step)
	next := extend(tail, rows, step)
	if &abandoned.Units()[0] != &next.Units()[0] {
		t.Error("the two extensions did not share an array: the abandoned rows were never at risk")
	}
	sameSegment(t, "extended after an abandoned extension", ix, next, rows, first+step)
	sameSegment(t, "the segment both extended", ix, tail, rows, first)

	// Readers pin segments of the chain as it grows and keep checking them.
	pinned := make(chan *DeltaSegment, extensions)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []*DeltaSegment
			for seg := range pinned {
				held = append(held, seg)
				for _, h := range held[max(0, len(held)-4):] {
					sameSegment(t, "pinned segment", ix, h, rows, h.Rows())
				}
			}
			for _, h := range held {
				sameSegment(t, "pinned segment at the end", ix, h, rows, h.Rows())
			}
		}()
	}
	inPlace := 0
	tail = next
	for e := 0; e < extensions; e++ {
		pinned <- tail
		next := extend(tail, rows, step)
		if &next.Units()[0] == &tail.Units()[0] {
			inPlace++
		}
		tail = next
	}
	close(pinned)
	wg.Wait()
	sameSegment(t, "the final tail", ix, tail, rows, first+step+step*extensions)
	if inPlace < extensions*3/4 {
		t.Errorf("%d of %d extensions grew the columns in place", inPlace, extensions)
	}
}
