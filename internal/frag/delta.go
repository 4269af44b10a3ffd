package frag

// Delta fragments: the append side of the epoch-versioned warehouse. A
// fragment's data becomes base + []delta — the base is whatever the
// backend built at the last compaction, and each delta is a sealed,
// immutable, fragment-aligned segment of plain row columns. A segment
// carries no bitmaps: bitmap join indices exist to spare fact-page I/O
// (Section 4.3), and a segment is in memory and already confined to its
// fragment. A query selects a segment's rows by testing each row's leaf
// members against the leaf ranges of its predicates (DeltaIndex.Ranges),
// which select exactly the rows the base bitmap plan (Plan) selects over
// the same leaves.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitmap"
	"repro/internal/schema"
)

// BitmapRef identifies one surviving bitmap of a fragmentation, in the
// fixed enumeration order of Survivors (Section 4.2): for encoded
// dimensions, the non-eliminated bit positions; for simple dimensions,
// one bitmap per member of each non-eliminated level.
type BitmapRef struct {
	Dim int
	// Bit is the bit index within the dimension's encoding layout
	// (encoded dimensions only).
	Bit int
	// Level and Member identify a simple bitmap (simple dimensions only).
	Level  int
	Member int
	// Simple distinguishes the two variants.
	Simple bool
}

// Survivors enumerates the surviving bitmaps of a fragmentation under an
// index configuration, in a deterministic order, together with the
// per-dimension encoding layouts and the number of eliminated leading
// bits per encoded dimension. Both the on-disk bitmap file and the
// delta index derive their bitmap enumeration from this one function,
// so base and delta agree bit-for-bit on what is stored.
func Survivors(spec *Spec, icfg IndexConfig) ([]BitmapRef, []*bitmap.Layout, []int) {
	star := spec.star
	var descs []BitmapRef
	layouts := make([]*bitmap.Layout, len(star.Dims))
	skip := make([]int, len(star.Dims))
	for d := range star.Dims {
		dim := &star.Dims[d]
		fl := -1
		if ai := spec.AttrOfDim(d); ai != -1 {
			fl = spec.attrs[ai].Level
		}
		switch icfg[d].Kind {
		case EncodedIndex:
			layouts[d] = bitmap.NewLayout(dim, icfg[d].PadBits)
			if fl >= 0 {
				skip[d] = layouts[d].PrefixBits(fl)
			}
			for b := skip[d]; b < layouts[d].TotalBits(); b++ {
				descs = append(descs, BitmapRef{Dim: d, Bit: b})
			}
		default:
			for l := fl + 1; l < dim.Depth(); l++ {
				for m := 0; m < dim.Levels[l].Card; m++ {
					descs = append(descs, BitmapRef{Dim: d, Level: l, Member: m, Simple: true})
				}
			}
		}
	}
	return descs, layouts, skip
}

// BitmapSlot locates one bitmap fragment inside the block of allocation
// units that holds all bitmap fragments of one fact fragment.
type BitmapSlot struct {
	// Unit is the index of the allocation unit within the block — the
	// thing one bitmap I/O reads and alloc.Placement.BitmapDisk places.
	Unit int32
	// Page is the unit's first page relative to the block, Pages its size.
	Page, Pages int32
	// Off and Len locate the payload within the unit, in bytes.
	Off, Len int32
}

// PackBitmapUnits lays the bitmap fragments of one fact fragment, given
// their payload sizes in bytes in Survivors order, into allocation units
// and appends one slot per payload to dst. The page is the allocation
// unit (Section 4.2): a payload of a page or more starts on a page
// boundary and is a unit of its own whole pages — the regime threshold
// (i) of Section 4.7 keeps a fragmentation in, where every bitmap
// fragment is its own unit. Sub-page payloads are laid one after another
// into shared one-page units and never straddle a page boundary, so a
// page is never fetched for its padding alone. Units are contiguous:
// each starts where the previous one ends.
func PackBitmapUnits(dst []BitmapSlot, sizes []int, pageSize int) []BitmapSlot {
	unit, page := int32(-1), int32(0)
	fill := -1 // bytes used in the open shared unit; -1 when none is open
	for _, n := range sizes {
		if n >= pageSize {
			unit++
			pages := int32((n + pageSize - 1) / pageSize)
			dst = append(dst, BitmapSlot{Unit: unit, Page: page, Pages: pages, Len: int32(n)})
			page += pages
			fill = -1 // a shared unit never continues behind an owned one
			continue
		}
		if fill < 0 || fill+n > pageSize {
			unit++
			page++
			fill = 0
		}
		dst = append(dst, BitmapSlot{Unit: unit, Page: page - 1, Pages: 1, Off: int32(fill), Len: int32(n)})
		fill += n
	}
	return dst
}

// BitmapOp is one operand of a query's bitmap selection within a
// fragment: the stored bitmap (its index in Survivors order), taken
// verbatim or complemented.
type BitmapOp struct {
	Index      int32
	Complement bool
}

// DeltaIndex is the surviving-bitmap index of a fragmentation: the
// Survivors enumeration, the encoding layouts and the position of every
// bitmap in the enumeration. The on-disk bitmap file evaluates a query by
// its Plan, and the delta segments select rows by its Ranges. It is
// immutable after construction and safe for concurrent use.
type DeltaIndex struct {
	star    *schema.Star
	spec    *Spec
	icfg    IndexConfig
	descs   []BitmapRef
	layouts []*bitmap.Layout
	skip    []int
	pos     map[BitmapRef]int
}

// NewDeltaIndex builds the delta index of a fragmentation.
func NewDeltaIndex(spec *Spec, icfg IndexConfig) (*DeltaIndex, error) {
	star := spec.star
	if len(icfg) != len(star.Dims) {
		return nil, fmt.Errorf("frag: index config has %d entries for %d dimensions", len(icfg), len(star.Dims))
	}
	descs, layouts, skip := Survivors(spec, icfg)
	ix := &DeltaIndex{
		star:    star,
		spec:    spec,
		icfg:    icfg,
		descs:   descs,
		layouts: layouts,
		skip:    skip,
		pos:     make(map[BitmapRef]int, len(descs)),
	}
	for i, d := range descs {
		ix.pos[d] = i
	}
	return ix, nil
}

// NumBitmaps returns the number of surviving bitmaps per fragment.
func (ix *DeltaIndex) NumBitmaps() int { return len(ix.descs) }

// Descs returns the surviving-bitmap enumeration (read-only).
func (ix *DeltaIndex) Descs() []BitmapRef { return ix.descs }

// Layout returns the encoding layout of dimension d (nil when the
// dimension carries simple indexes).
func (ix *DeltaIndex) Layout(d int) *bitmap.Layout { return ix.layouts[d] }

// Pos returns a bitmap's position in the enumeration.
func (ix *DeltaIndex) Pos(ref BitmapRef) (int, bool) {
	i, ok := ix.pos[ref]
	return i, ok
}

// Plan appends the query's bitmap plan to dst: one operand per stored
// bitmap its predicates read within a fragment (Section 4.3, step 2),
// ordered by stored index. A simple index contributes the member's one
// bitmap; an encoded index the bit-position bitmaps between the
// fragmentation level (exclusive) and the predicate level (inclusive),
// each verbatim or complemented per the member's bit pattern. The plan
// depends on the query alone, never on the fragment; it is empty when no
// predicate needs bitmap access (IOC1: every row of a relevant fragment
// matches by confinement).
func (ix *DeltaIndex) Plan(dst []BitmapOp, q Query) ([]BitmapOp, error) {
	base := len(dst)
	for _, p := range q.Preds {
		if !ix.spec.NeedsBitmap(p) {
			continue
		}
		if ix.icfg[p.Dim].Kind == SimpleIndexes {
			di, ok := ix.pos[BitmapRef{Dim: p.Dim, Level: p.Level, Member: p.Member, Simple: true}]
			if !ok {
				return dst, fmt.Errorf("frag: bitmap %d.%d=%d not stored", p.Dim, p.Level, p.Member)
			}
			dst = append(dst, BitmapOp{Index: int32(di)})
			continue
		}
		layout := ix.layouts[p.Dim]
		skip := ix.skip[p.Dim]
		hi := layout.PrefixBits(p.Level)
		if hi <= skip {
			dim := &ix.star.Dims[p.Dim]
			return dst, fmt.Errorf("frag: predicate on %s.%s needs no bitmaps", dim.Name, dim.Levels[p.Level].Name)
		}
		pattern := layout.EncodePrefix(p.Level, p.Member)
		first := ix.pos[BitmapRef{Dim: p.Dim, Bit: skip}] // an encoded dimension's bits are consecutive
		for b := skip; b < hi; b++ {
			dst = append(dst, BitmapOp{Index: int32(first + b - skip), Complement: pattern>>uint(hi-1-b)&1 == 0})
		}
	}
	slices.SortFunc(dst[base:], func(a, b BitmapOp) int { return cmp.Compare(a.Index, b.Index) })
	return dst, nil
}

// LeafRange is one row predicate of a query within a relevant fragment: a
// row matches when its leaf member on Dim lies in [Lo, Hi).
type LeafRange struct {
	Dim    int
	Lo, Hi int32
}

// Ranges compiles the query's row predicates within a relevant fragment
// into sc and returns them, valid until the next Ranges on sc: one range
// per predicate that needs bitmap access, the predicate member's
// descendants at the leaf level. Within a fragment a row lies in them
// exactly when Plan's bitmaps select it (the stored bits below the
// fragmentation level spell the member's leaf prefix). None is left when
// every row of a relevant fragment matches by confinement (IOC1).
func (ix *DeltaIndex) Ranges(q Query, sc *DeltaScratch) []LeafRange {
	sc.ranges = sc.ranges[:0]
	for _, p := range q.Preds {
		if !ix.spec.NeedsBitmap(p) {
			continue
		}
		dim := &ix.star.Dims[p.Dim]
		lo, hi := dim.DescendantRange(p.Level, p.Member, dim.Leaf())
		sc.ranges = append(sc.ranges, LeafRange{Dim: p.Dim, Lo: int32(lo), Hi: int32(hi)})
	}
	return sc.ranges
}

// DeltaScratch holds a query compiled for the delta fold (Ranges), which
// the kernel drivers compile once per query.
type DeltaScratch struct {
	ranges []LeafRange
}

// NewDeltaScratch returns an empty scratch.
func NewDeltaScratch() *DeltaScratch { return &DeltaScratch{} }

// DeltaSegment is one sealed, immutable batch of appended fact rows, all
// belonging to one fragment: the leaf members per dimension and the three
// measures — the delta counterpart of a fact fragment. Segments are
// ordered by Seq, the warehouse-wide seal sequence number. A sealed
// segment is final: later appends add segments, never rows to this one.
type DeltaSegment struct {
	frag    int64
	seq     uint64
	dims    [][]int32
	units   []int64
	dollars []int64
	costs   []int64
}

// SealColumns seals columns the caller built into a segment, without a
// copy: dims[d] holds every row's leaf member on dimension d and the
// three measure columns one value per row, all of the same length. The
// segment keeps the slices, so the caller must never write them again.
func SealColumns(fragID int64, seq uint64, dims [][]int32, units, dollars, costs []int64) *DeltaSegment {
	return &DeltaSegment{frag: fragID, seq: seq, dims: dims, units: units, dollars: dollars, costs: costs}
}

// Selects reports whether row i lies in every range (see Ranges).
func (s *DeltaSegment) Selects(ranges []LeafRange, i int) bool {
	for _, r := range ranges {
		if l := s.dims[r.Dim][i]; l < r.Lo || l >= r.Hi {
			return false
		}
	}
	return true
}

// Frag returns the fragment id the segment belongs to.
func (s *DeltaSegment) Frag() int64 { return s.frag }

// Seq returns the warehouse-wide seal sequence number.
func (s *DeltaSegment) Seq() uint64 { return s.seq }

// Rows returns the number of rows in the segment.
func (s *DeltaSegment) Rows() int { return len(s.units) }

// Leaves returns the leaf members of dimension d, one per row. The
// returned slice is shared — callers must not modify it.
func (s *DeltaSegment) Leaves(d int) []int32 { return s.dims[d] }

// Dims returns every dimension's leaf column, Leaves(d) at index d
// (read-only).
func (s *DeltaSegment) Dims() [][]int32 { return s.dims }

// Units returns the UnitsSold measure column (read-only).
func (s *DeltaSegment) Units() []int64 { return s.units }

// Dollars returns the DollarSales measure column (read-only).
func (s *DeltaSegment) Dollars() []int64 { return s.dollars }

// Costs returns the Cost measure column (read-only).
func (s *DeltaSegment) Costs() []int64 { return s.costs }

// SegmentBuilder accumulates rows into one fragment's next delta segment
// row by row. Not safe for concurrent use; Seal freezes the content into
// an immutable DeltaSegment and the builder must then be discarded.
type SegmentBuilder struct {
	frag    int64
	dims    [][]int32
	units   []int64
	dollars []int64
	costs   []int64
}

// NewSegment starts an empty segment builder for the fragment.
func (ix *DeltaIndex) NewSegment(fragID int64) *SegmentBuilder {
	return &SegmentBuilder{frag: fragID, dims: make([][]int32, len(ix.star.Dims))}
}

// Add appends one fact row given its leaf member per dimension. The
// caller is responsible for routing the row to the builder's fragment.
func (sb *SegmentBuilder) Add(leaves []int32, units, dollars, cost int64) {
	for d := range sb.dims {
		sb.dims[d] = append(sb.dims[d], leaves[d])
	}
	sb.units = append(sb.units, units)
	sb.dollars = append(sb.dollars, dollars)
	sb.costs = append(sb.costs, cost)
}

// Seal freezes the builder into an immutable segment with the given
// warehouse-wide sequence number: a header over the builder's columns.
func (sb *SegmentBuilder) Seal(seq uint64) *DeltaSegment {
	return SealColumns(sb.frag, seq, sb.dims, sb.units, sb.dollars, sb.costs)
}

// DeltaSet is an immutable snapshot of every fragment's delta segments.
// Mutation is copy-on-write (WithBatch / With / After return new sets),
// so a query that pinned a set at admission keeps reading it unaffected
// by concurrent appends and compactions. A nil *DeltaSet is the valid
// empty set.
type DeltaSet struct {
	segs   map[int64][]*DeltaSegment
	rows   int64
	nsegs  int
	maxSeq uint64
}

// Rows returns the total delta rows across all fragments.
func (s *DeltaSet) Rows() int64 {
	if s == nil {
		return 0
	}
	return s.rows
}

// Segments returns the total number of segments.
func (s *DeltaSet) Segments() int {
	if s == nil {
		return 0
	}
	return s.nsegs
}

// Fragments returns the number of fragments holding at least one segment.
func (s *DeltaSet) Fragments() int {
	if s == nil {
		return 0
	}
	return len(s.segs)
}

// MaxSeq returns the highest seal sequence number in the set — the
// compaction boundary.
func (s *DeltaSet) MaxSeq() uint64 {
	if s == nil {
		return 0
	}
	return s.maxSeq
}

// Of returns the fragment's segments in seal order (read-only).
func (s *DeltaSet) Of(frag int64) []*DeltaSegment {
	if s == nil {
		return nil
	}
	return s.segs[frag]
}

// WithBatch returns a new set with one batch's segments appended to
// their fragments' lists in order, at the cost of one copy of the set and
// of the lists it touches. Every Seq must exceed MaxSeq.
func (s *DeltaSet) WithBatch(segs []*DeltaSegment) *DeltaSet {
	out := &DeltaSet{segs: make(map[int64][]*DeltaSegment, s.Fragments()+len(segs))}
	if s != nil {
		for f, fs := range s.segs {
			out.segs[f] = fs
		}
		out.rows, out.nsegs, out.maxSeq = s.rows, s.nsegs, s.maxSeq
	}
	for _, seg := range segs {
		keep := out.segs[seg.frag]
		if old := s.Of(seg.frag); len(old) > 0 && &keep[0] == &old[0] {
			// Copy a list s still holds, so that no other set's view aliases
			// a growing array; one copied here may grow in place.
			keep = append(make([]*DeltaSegment, 0, len(keep)+1), keep...)
		}
		out.segs[seg.frag] = append(keep, seg)
		out.rows += int64(seg.Rows())
		out.nsegs++
		out.maxSeq = max(out.maxSeq, seg.seq)
	}
	return out
}

// With returns a new set with seg appended to its fragment's list: a
// batch of one new segment.
func (s *DeltaSet) With(seg *DeltaSegment) *DeltaSet {
	return s.WithBatch([]*DeltaSegment{seg})
}

// After returns the subset of segments sealed strictly after seq — the
// appends that raced past a compaction's boundary and stay live across
// the epoch swap.
func (s *DeltaSet) After(seq uint64) *DeltaSet {
	if s == nil {
		return nil
	}
	out := &DeltaSet{segs: make(map[int64][]*DeltaSegment)}
	for f, segs := range s.segs {
		i := sort.Search(len(segs), func(i int) bool { return segs[i].seq > seq })
		if i == len(segs) {
			continue
		}
		keep := segs[i:]
		out.segs[f] = keep
		out.nsegs += len(keep)
		for _, seg := range keep {
			out.rows += int64(seg.Rows())
			if seg.seq > out.maxSeq {
				out.maxSeq = seg.seq
			}
		}
	}
	if out.nsegs == 0 {
		return nil
	}
	return out
}

// FragmentIDs returns the ids of the fragments holding at least one
// segment, ascending — allocation order.
func (s *DeltaSet) FragmentIDs() []int64 {
	if s == nil {
		return nil
	}
	frags := make([]int64, 0, len(s.segs))
	for f := range s.segs {
		frags = append(frags, f)
	}
	slices.Sort(frags)
	return frags
}

// ForEachSegment calls fn with every segment, fragments in ascending id
// order and segments in seal order within a fragment — the
// deterministic iteration compaction folds in.
func (s *DeltaSet) ForEachSegment(fn func(seg *DeltaSegment)) {
	for _, f := range s.FragmentIDs() {
		for _, seg := range s.segs[f] {
			fn(seg)
		}
	}
}
