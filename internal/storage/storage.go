// Package storage is the paged, on-disk representation of an
// MDHF-fragmented warehouse: fact fragments packed into fixed-size pages
// and stored consecutively in allocation order (the layout assumption of
// the paper's I/O model), plus the surviving bitmap fragments, plus a
// persisted directory, the meta file (only the package's tests read an
// epoch's files back; the program never reopens them). The files of
// one epoch are written once, fragment by fragment, by one writer — fed
// from a table (Build) or from an older epoch's files and a delta set
// (Backend.Compact, which copies what the deltas do not touch) — and
// never modified. An executor (executor.go) runs star queries against
// the files with prefetch-granule reads, making the paper's I/O
// accounting physically observable.
//
// Page format: a fact page holds the paper's tuples — 20 bytes for APB-1,
// one uint16 foreign key per dimension and three int32 measures — as a
// column block (PAX): its TuplesPerPage rows' UnitsSold, DollarSales and
// Cost columns, then one key column per dimension, little endian
// (pagekernel.go). Pages, granules and I/O counts are the tuple layout's.
package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/data"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/schema"
)

const (
	factFileName = "fact.dat"
	metaFileName = "meta.dat"
	magic        = 0x4d444846 // "MDHF"
	// formatV3 is the meta file of a store whose fact pages are column
	// blocks, with a per-page CRC32C table every physical read is verified
	// against (see fault.go). Formats 1 and 2 stored row tuples.
	formatV3 = 3
	// carryPages is how many pages a compaction copies per read and write.
	carryPages = 16
)

// FragLoc locates one fact fragment inside the fact file.
type FragLoc struct {
	PageOff int64 // first page number
	Pages   int32 // number of pages
	Rows    int32 // number of tuples
}

// Store is an on-disk fact table fragmented per an MDHF spec. Its paged
// file's checksum table is computed at Build and persisted in the
// formatV3 meta file; its reads queue on the disk FactDisk maps a
// fragment to.
type Store struct {
	pagedFile
	star *schema.Star
	spec *frag.Spec
	tpp  int // tuples per page
	dir  map[int64]FragLoc
	// order holds the non-empty fragment ids in allocation order.
	order []int64
}

// newStore returns an empty store over the fact file f, on one disk.
func newStore(star *schema.Star, spec *frag.Spec, f *os.File) *Store {
	ds, p := oneDisk()
	return &Store{
		pagedFile: pagedFile{file: f, name: "fact", pageSize: star.PageSize, disks: ds, placement: p},
		star:      star,
		spec:      spec,
		tpp:       TuplesPerPage(star),
		dir:       make(map[int64]FragLoc),
	}
}

// TupleSize returns the on-disk tuple size for a schema: 2 bytes per
// dimension key plus 12 bytes of measures.
func TupleSize(star *schema.Star) int { return 2*len(star.Dims) + 12 }

// TuplesPerPage returns how many tuples fit one page.
func TuplesPerPage(star *schema.Star) int { return star.PageSize / TupleSize(star) }

// Build partitions the table per spec and writes the fact file and
// directory into dir (created if needed). Fragments are written in
// allocation order; each fragment starts on a fresh page. It is the
// fragment writer with every fragment new and its rows taken, front to
// back, from the table's partition; Backend.Compact is the same writer
// over an old epoch's pages and a delta set. The measures are checked in
// table order first, so an error names the table row. A page size that
// is not a multiple of 8 is refused: the column pages need it aligned.
func Build(dirPath string, t *data.Table, spec *frag.Spec) (*Store, error) {
	return build(dirPath, t, spec, new(buildScratch))
}

// build is Build writing through the build scratch sc.
func build(dirPath string, t *data.Table, spec *frag.Spec, sc *buildScratch) (*Store, error) {
	star := t.Star
	if star.PageSize%8 != 0 {
		return nil, fmt.Errorf("storage: page size %d is not a multiple of 8", star.PageSize)
	}
	for i := range star.Dims {
		if star.Dims[i].LeafCard() > 1<<16 {
			return nil, fmt.Errorf("storage: dimension %s cardinality %d exceeds uint16 keys", star.Dims[i].Name, star.Dims[i].LeafCard())
		}
	}
	if err := checkColumns(kernel.Columns{Units: t.UnitsSold, Dollars: t.DollarSales, Costs: t.Cost}); err != nil {
		return nil, err
	}
	w, err := newFactWriter(dirPath, star, spec, sc)
	if err != nil {
		return nil, err
	}
	p := kernel.NewPartition(spec, t)
	for k, id := range p.IDs {
		w.add(p.Fragment(k))
		w.end(id)
	}
	return w.finish()
}

// factWriter writes one epoch's fact file fragment by fragment, in
// allocation order: the open fragment's rows are encoded into pages
// (add), or taken over from an older epoch's file (carry), until end
// closes it and enters it into the directory. Encoded pages collect in a
// run of up to carryPages, written with one call. The first write error
// sticks and is reported by finish.
type factWriter struct {
	s   *Store
	dir string
	sc  *buildScratch
	// run (sc.run) holds the run's full pages, whose checksums are sums,
	// then the open page, fill rows of each of its columns in use; the
	// rest of it is zero. carry copies through it too. flush and carry
	// clear what they used, so a writer leaves it all zero for the next.
	run  []byte
	sums []uint32
	fill int
	rows int // rows of the open fragment
	err  error
}

// newFactWriter creates the fact file in dirPath, written through sc.
func newFactWriter(dirPath string, star *schema.Star, spec *frag.Spec, sc *buildScratch) (*factWriter, error) {
	if err := os.MkdirAll(dirPath, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dirPath, factFileName))
	if err != nil {
		return nil, err
	}
	s := newStore(star, spec, f)
	sc.run = grow(sc.run, carryPages*s.pageSize) // zero: see factWriter.run
	sc.dims = grow(sc.dims, len(star.Dims))
	return &factWriter{s: s, dir: dirPath, sc: sc, run: sc.run}, nil
}

// ErrMeasureRange is wrapped by the error that refuses a fact row whose
// measure does not fit the tuple format's int32: stored, it would lose
// its high bits without a trace.
var ErrMeasureRange = errors.New("storage: measure outside the int32 range of the tuple format")

// CheckMeasures returns nil, or an ErrMeasureRange naming the row and the
// first of its measures that does not fit.
func CheckMeasures(row int, unitsSold, dollarSales, cost int64) error {
	for i, v := range [...]int64{unitsSold, dollarSales, cost} {
		if v != int64(int32(v)) {
			return fmt.Errorf("%w: row %d: %s = %d", ErrMeasureRange, row, [...]string{"UnitsSold", "DollarSales", "Cost"}[i], v)
		}
	}
	return nil
}

// checkColumns returns CheckMeasures' error for the first row of cols
// whose measures do not fit, or nil.
func checkColumns(cols kernel.Columns) error {
	for i, u := range cols.Units {
		if d, c := cols.Dollars[i], cols.Costs[i]; u != int64(int32(u)) || d != int64(int32(d)) || c != int64(int32(c)) {
			return CheckMeasures(i, u, d, c)
		}
	}
	return nil
}

// add appends the rows of cols, whose measures fit, to the open fragment,
// a page at a time and within a page a column at a time.
func (w *factWriter) add(cols kernel.Columns) {
	n := len(cols.Units)
	for lo := 0; lo < n; {
		if w.fill == w.s.tpp {
			w.flush(false)
		}
		hi := min(n, lo+w.s.tpp-w.fill)
		page := w.s.pageCols(w.run[len(w.sums)*w.s.pageSize:], w.sc.dims)
		for d, col := range cols.Dims {
			convert(page.Dims[d][w.fill:], col[lo:hi])
		}
		convert(page.Units[w.fill:], cols.Units[lo:hi])
		convert(page.Dollars[w.fill:], cols.Dollars[lo:hi])
		convert(page.Costs[w.fill:], cols.Costs[lo:hi])
		w.fill += hi - lo
		lo = hi
	}
	w.rows += n
}

// flush closes the open page, if it holds rows, with its checksum; once
// the run holds carryPages pages, or at the fragment's end, the run is
// written with one call and emptied.
func (w *factWriter) flush(end bool) {
	ps := w.s.pageSize
	if w.fill > 0 {
		w.sums, w.fill = append(w.sums, pageCRC(w.run[len(w.sums)*ps:][:ps])), 0
	}
	if n := len(w.sums) * ps; end || len(w.sums) == carryPages {
		if w.err == nil && n > 0 {
			_, w.err = w.s.appendPages(w.run[:n], w.sums)
		}
		clear(w.run[:n])
		w.sums = w.sums[:0]
	}
}

// carry opens the fragment with the rows it holds in the old epoch's
// store: its full pages — all its pages when the fragment is carried
// forward unchanged (reopen false) — are copied byte for byte together
// with their checksum entries, neither decoded nor verified, so a page
// that was corrupt stays detectably corrupt. With reopen, the rows of a
// last, partly filled page become the start of the open page, to be
// followed by add; that page is verified first, because it is
// re-checksummed with the rows that follow.
//
// The pages are read straight off the old file: build I/O is not charged
// to a disk set, and neither injected faults nor a failed disk block a
// compaction.
func (w *factWriter) carry(old *Store, id int64, reopen bool) {
	loc := old.dir[id]
	n, tail := int(loc.Pages), 0
	if reopen {
		n, tail = int(loc.Rows)/old.tpp, int(loc.Rows)%old.tpp
	}
	w.rows = int(loc.Rows)
	read := func(page int64, buf []byte) {
		if w.err != nil {
			return
		}
		if _, err := old.file.ReadAt(buf, page*int64(old.pageSize)); err != nil {
			w.err = fmt.Errorf("storage: carrying %d fact pages of fragment %d from page %d: %w", len(buf)/old.pageSize, id, page, err)
		}
	}
	used := 0 // bytes of the run the copies overwrote
	for p := 0; p < n; p += carryPages {
		c, first := min(carryPages, n-p), loc.PageOff+int64(p)
		used = max(used, c*old.pageSize)
		read(first, w.run[:c*old.pageSize])
		if w.err == nil {
			_, w.err = w.s.appendPages(w.run[:c*old.pageSize], old.sums[first:first+int64(c)])
		}
	}
	if tail > 0 {
		last, page := w.run[:old.pageSize], loc.PageOff+int64(n)
		used = max(used, old.pageSize)
		read(page, last)
		if w.err == nil {
			w.err = old.verify(last, page, id)
		}
		if w.err == nil {
			w.fill = tail
		}
	}
	// A re-opened page is kept whole: past its rows, each column holds the
	// zeros it was written with.
	clear(w.run[min(w.fill, 1)*old.pageSize : used])
}

// end closes the open fragment — a partly filled last page is written
// zero-padded — and enters it into the directory.
func (w *factWriter) end(id int64) {
	w.flush(true)
	s := w.s
	pages := (w.rows + s.tpp - 1) / s.tpp
	s.dir[id] = FragLoc{PageOff: int64(len(s.sums) - pages), Pages: int32(pages), Rows: int32(w.rows)}
	s.order = append(s.order, id)
	w.rows = 0
}

// finish persists the directory and returns the store; after an error
// the fact file is closed and nothing is returned.
func (w *factWriter) finish() (*Store, error) {
	if w.err == nil {
		w.sc.meta = w.s.encodeMeta(w.sc.meta[:0])
		w.err = os.WriteFile(filepath.Join(w.dir, metaFileName), w.sc.meta, 0o644)
	}
	if w.err != nil {
		w.s.file.Close()
		return nil, w.err
	}
	return w.s, nil
}

// encodeMeta appends to b, grown once, the meta file of the directory:
// magic, version, page size, #frags, then (id, pageOff, pages, rows) per
// fragment, then the per-page CRC32C table: a page count followed by one
// uint32 per page.
func (s *Store) encodeMeta(b []byte) []byte {
	b = slices.Grow(b, 8*(5+4*len(s.order))+4*len(s.sums))
	b = binary.LittleEndian.AppendUint64(b, magic)
	for _, v := range []int64{formatV3, int64(s.pageSize), int64(len(s.order))} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, id := range s.order {
		loc := s.dir[id]
		for _, v := range []int64{id, loc.PageOff, int64(loc.Pages), int64(loc.Rows)} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s.sums)))
	for _, c := range s.sums {
		b = binary.LittleEndian.AppendUint32(b, c)
	}
	return b
}

// Fragments returns the stored fragment ids in allocation order.
func (s *Store) Fragments() []int64 { return s.order }

// Loc returns the location of a fragment, if stored.
func (s *Store) Loc(id int64) (FragLoc, bool) {
	loc, ok := s.dir[id]
	return loc, ok
}

// DiskOf returns the disk holding fact fragment id.
func (s *Store) DiskOf(id int64) int { return s.placement.FactDisk(id) }

// ReadPagesInto reads `count` pages of fragment id starting at page
// `start` within the fragment — one physical I/O, past any buffer pool —
// into buf when its capacity suffices (allocating otherwise), and returns
// the filled slice. The read queues on the fragment's disk, runs under
// the retry policy and is verified page by page (see pagedFile.read);
// failures surface as typed *FaultError values.
func (s *Store) ReadPagesInto(buf []byte, id int64, start, count int) ([]byte, error) {
	absPage, err := s.run(id, start, count)
	if err != nil {
		return nil, err
	}
	buf = sized(buf, count*s.pageSize)
	if err := s.read(context.Background(), buf, absPage, s.DiskOf(id), id); err != nil {
		return nil, err
	}
	return buf, nil
}

// run returns the absolute page of page start of fragment id, checking
// that [start, start+count) lies inside the fragment.
func (s *Store) run(id int64, start, count int) (int64, error) {
	loc, ok := s.dir[id]
	if !ok {
		return 0, fmt.Errorf("storage: fragment %d not stored", id)
	}
	if start < 0 || start+count > int(loc.Pages) {
		return 0, fmt.Errorf("storage: fragment %d pages [%d,%d) out of fragment's %d", id, start, start+count, loc.Pages)
	}
	return loc.PageOff + int64(start), nil
}

// ReadGranule is the pool-aware ReadPagesInto, one fact prefetch granule
// (see pagedFile.readPooled): with no pool attached data is the grown buf
// and ent nil; with one, a hit costs no physical I/O, and a non-nil ent
// pins pool-owned data the caller must Unpin once done aggregating from
// it.
func (s *Store) ReadGranule(buf []byte, id int64, start, count int) (data []byte, ent *PoolEntry, hit bool, err error) {
	return s.ReadGranuleCtx(context.Background(), buf, id, start, count)
}

// ReadGranuleCtx is ReadGranule under a context: the executor's one fact
// read, issued by the worker that folds the granule (forEachGranule).
func (s *Store) ReadGranuleCtx(ctx context.Context, buf []byte, id int64, start, count int) (data []byte, ent *PoolEntry, hit bool, err error) {
	absPage, err := s.run(id, start, count)
	if err != nil {
		return nil, nil, false, err
	}
	key := PoolKey{File: PoolFact, Frag: id, Off: int32(start), Len: int32(count)}
	return s.readPooled(ctx, buf, key, absPage, s.DiskOf(id))
}
