package storage

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"repro/internal/bitmap"
	"repro/internal/kernel"
)

// littleEndian reports whether the host lays an integer out as a fact
// page does: least significant byte first.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// pageCols returns the column view of one fact page, read and written in
// place: its tpp rows as the three int32 measure columns (UnitsSold,
// DollarSales, Cost), then one uint16 key column per dimension, the keys
// in dims, re-pointed. Measures go first, so that every column starts 4-
// or 2-byte aligned on a page that starts 8-byte aligned (Build refuses
// any other page size). It is the one place that knows the page format;
// a big-endian host would read it wrong, and panics instead.
func (s *Store) pageCols(page []byte, dims [][]uint16) kernel.Cols[uint16, int32] {
	if !littleEndian {
		panic("storage: fact pages are little endian and this host is not")
	}
	_ = page[s.pageSize-1] // a short page fails here, never past its end
	n := s.tpp
	col := func(m int) []int32 { return unsafe.Slice((*int32)(unsafe.Pointer(&page[4*n*m])), n) }
	for d := range dims {
		dims[d] = unsafe.Slice((*uint16)(unsafe.Pointer(&page[12*n+2*n*d])), n)
	}
	return kernel.Cols[uint16, int32]{Dims: dims, Units: col(0), Dollars: col(1), Costs: col(2)}
}

// fold folds into sl the fragment rows [lo, hi) that sel selects (nil:
// every one), all of them inside the granule whose pages buf holds (start
// is the granule's first page): a page's column view at a time, its keys
// in dims, through the column kernel the engine and the delta fold use.
// rows is the fragment's row count; rows past it are page padding, and
// asking for them is a caller bug, never a silent read.
func (s *Store) fold(sl *kernel.Slot, dims [][]uint16, buf []byte, start, rows, lo, hi int, sel *bitmap.Bitset) {
	if lo < 0 || lo > hi || hi > rows {
		panic(fmt.Sprintf("storage: rows [%d,%d) outside the fragment's %d", lo, hi, rows))
	}
	buf = buf[:len(buf):len(buf)] // a reused buffer's spare capacity is not the granule's
	for p := lo / s.tpp; lo < hi; p++ {
		first, end, off := p*s.tpp, min(hi, (p+1)*s.tpp), (p-start)*s.pageSize
		kernel.Fold(sl, s.pageCols(buf[off:off+s.pageSize], dims), lo-first, end-first, sel, first)
		lo = end
	}
}

// convert copies src into dst, converting each value.
func convert[D, S uint16 | int32 | int64](dst []D, src []S) {
	for i, v := range src {
		dst[i] = D(v)
	}
}
