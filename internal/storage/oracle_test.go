package storage

// The oracles of the store's formats: a store reopened from its meta
// file, and a fragment's tuples decoded one at a time with explicit
// offsets into the column pages, never through the in-place view.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/frag"
	"repro/internal/schema"
)

// reopen reopens a store built earlier in dirPath. star and spec must
// match the ones used at build time (only the page size is verified).
func reopen(dirPath string, star *schema.Star, spec *frag.Spec) (*Store, error) {
	meta, err := os.ReadFile(filepath.Join(dirPath, metaFileName))
	if err != nil {
		return nil, err
	}
	s := newStore(star, spec, nil)
	if err := s.readMeta(meta); err != nil {
		return nil, fmt.Errorf("storage: meta file: %w", err)
	}
	if s.file, err = os.Open(filepath.Join(dirPath, factFileName)); err != nil {
		return nil, err
	}
	return s, nil
}

// readMeta parses encodeMeta's encoding into s's directory and checksum
// table. A count is checked against the bytes left before anything is
// sized by it, so a corrupt file yields an error, never a panic or an
// outsized allocation; an accepted file is byte for byte what encodeMeta
// returns for the directory it holds.
func (s *Store) readMeta(b []byte) error {
	truncated := false
	r := func() int64 {
		if len(b) < 8 {
			truncated = true
			return 0
		}
		v := int64(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return v
	}
	mg, ver, ps, n := r(), r(), r(), r()
	switch {
	case truncated:
		return io.ErrUnexpectedEOF
	case mg != magic:
		return fmt.Errorf("bad magic %x", mg)
	case ver != formatV3:
		return fmt.Errorf("unsupported format %d", ver)
	case ps != int64(s.pageSize):
		return fmt.Errorf("page size %d != schema %d", ps, s.pageSize)
	case n < 0 || n > int64(len(b)/32):
		return fmt.Errorf("%d fragments in %d directory bytes", n, len(b))
	}
	s.dir = make(map[int64]FragLoc, n)
	s.order = make([]int64, 0, n)
	var pages int64
	for i := int64(0); i < n; i++ { // n bounds these reads by the bytes left
		id, loc := r(), FragLoc{PageOff: r()}
		np, rows := r(), r()
		if _, dup := s.dir[id]; dup {
			return fmt.Errorf("fragment %d listed twice", id)
		}
		if rows < 0 || rows > math.MaxInt32 || np != (rows+int64(s.tpp)-1)/int64(s.tpp) || loc.PageOff < 0 {
			return fmt.Errorf("fragment %d: %d rows on %d pages from page %d", id, rows, np, loc.PageOff)
		}
		loc.Pages, loc.Rows = int32(np), int32(rows)
		s.dir[id] = loc
		s.order = append(s.order, id)
		pages += np
	}
	npages := r()
	switch {
	case truncated:
		return fmt.Errorf("reading checksum table length: %w", io.ErrUnexpectedEOF)
	case npages != pages:
		return fmt.Errorf("checksum table of %d pages for %d directory pages", npages, pages)
	case int64(len(b)) != 4*npages:
		return fmt.Errorf("checksum table of %d pages in %d bytes", npages, len(b))
	}
	for _, id := range s.order {
		if loc := s.dir[id]; loc.PageOff > npages-int64(loc.Pages) {
			return fmt.Errorf("fragment %d: pages %d+%d past the %d-page table", id, loc.PageOff, loc.Pages, npages)
		}
	}
	s.sums = make([]uint32, npages)
	for i := range s.sums {
		s.sums[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return nil
}

// tuple is one decoded fact tuple.
type tuple struct {
	Keys        []uint16
	UnitsSold   int32
	DollarSales int32
	Cost        int32
}

// decodeTuple reads row r of a column page: measure m at 4·(m·tpp + r),
// then the key of dimension d at 12·tpp + 2·(d·tpp + r). keys must have
// len(star.Dims).
func (s *Store) decodeTuple(page []byte, r int, keys []uint16) tuple {
	n := s.tpp
	for d := range keys {
		keys[d] = binary.LittleEndian.Uint16(page[12*n+2*(d*n+r):])
	}
	m := func(i int) int32 { return int32(binary.LittleEndian.Uint32(page[4*(i*n+r):])) }
	return tuple{Keys: keys, UnitsSold: m(0), DollarSales: m(1), Cost: m(2)}
}

// scanFragment calls fn for every tuple of the fragment, read with one
// read. Each call allocates the fragment's pages and a key slice; a
// tuple's Keys is that slice, overwritten for the next tuple, so fn must
// copy what it keeps. It is the oracle scan: a build reads its fragments
// back into its own scratch instead (BitmapFile.buildBlock).
func (s *Store) scanFragment(id int64, fn func(tuple)) error {
	loc, ok := s.dir[id]
	if !ok {
		return nil // empty fragment
	}
	pages, err := s.ReadPagesInto(nil, id, 0, int(loc.Pages))
	if err != nil {
		return err
	}
	keys := make([]uint16, len(s.star.Dims))
	for i := range int(loc.Rows) {
		fn(s.decodeTuple(pages[i/s.tpp*s.pageSize:], i%s.tpp, keys))
	}
	return nil
}
