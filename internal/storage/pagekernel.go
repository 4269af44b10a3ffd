package storage

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kernel"
)

// rowAcc is where one fragment's rows accumulate: the partial's grand
// total plus, on the per-row grouping fallback (perRow non-empty), its
// fragment-local group map. The tuple's dimension keys carry the leaf
// members, so per-row grouping needs no extra I/O — only the key
// arithmetic and map update. It lives in the per-worker scratch and is
// re-pointed at every fragment's partial.
type rowAcc struct {
	p      *partial
	base   uint64
	perRow []kernel.RowLevel
	rows   int // the fragment's row count: no run may reach past it
}

// sumRun returns the count and measure sums of tuples [first, first+n) of
// one page. Only the three int32 measures of each tuple are read — no key
// is decoded. page must be exactly one page, so a run reaching past the
// page's last whole tuple fails the slice bounds check instead of reading
// padding.
func (s *Store) sumRun(page []byte, first, n int) Aggregate {
	if n == 0 {
		return Aggregate{}
	}
	ts := s.tupleSize
	var units, dollars, cost int64
	// b runs from the first tuple's measures to the end of the last tuple.
	for b := page[(first+1)*ts-12 : (first+n)*ts]; ; b = b[ts:] {
		m := b[:12]
		units += int64(int32(binary.LittleEndian.Uint32(m)))
		dollars += int64(int32(binary.LittleEndian.Uint32(m[4:])))
		cost += int64(int32(binary.LittleEndian.Uint32(m[8:])))
		if len(b) == 12 {
			return Aggregate{Count: int64(n), UnitsSold: units, DollarSales: dollars, Cost: cost}
		}
	}
}

// groupRun is sumRun's keyed twin for the per-row GROUP BY fallback: of
// each tuple's keys it decodes only the dimensions the grouper buckets per
// row, and folds the tuple into the total and into its group.
func (s *Store) groupRun(a *rowAcc, page []byte, first, n int) {
	ts := s.tupleSize
	b := page[first*ts : (first+n)*ts]
	for kb := ts - 12; len(b) >= ts; b = b[ts:] {
		key := a.base
		for _, rl := range a.perRow {
			key += uint64(int64(binary.LittleEndian.Uint16(b[2*rl.Dim:]))/rl.Div) * rl.Weight
		}
		m := b[kb : kb+12]
		units := int64(int32(binary.LittleEndian.Uint32(m)))
		dollars := int64(int32(binary.LittleEndian.Uint32(m[4:])))
		cost := int64(int32(binary.LittleEndian.Uint32(m[8:])))
		a.p.fp.Agg.AddRow(units, dollars, cost)
		a.p.fp.Groups.AddRow(key, units, dollars, cost)
	}
}

// fold accumulates fragment rows [lo, hi), all of them inside the granule
// whose pages buf holds (start is the granule's first page): the page
// arithmetic is done once per call and each page touched is one kernel
// run. Rows past the fragment's last are page padding; asking for them is
// a caller bug, never a silent read.
func (s *Store) fold(a *rowAcc, buf []byte, start, lo, hi int) {
	if lo < 0 || lo > hi || hi > a.rows {
		panic(fmt.Sprintf("storage: rows [%d,%d) outside the fragment's %d", lo, hi, a.rows))
	}
	a.p.st.RowsRead += int64(hi - lo)
	buf = buf[:len(buf):len(buf)] // a reused buffer's spare capacity is not the granule's
	p := lo / s.tpp
	first := lo - p*s.tpp
	for off := (p - start) * s.pageSize; lo < hi; off += s.pageSize {
		n := min(s.tpp-first, hi-lo)
		page := buf[off : off+s.pageSize : off+s.pageSize]
		if len(a.perRow) == 0 {
			a.p.fp.Agg.Add(s.sumRun(page, first, n))
		} else {
			s.groupRun(a, page, first, n)
		}
		lo += n
		first = 0
	}
}
