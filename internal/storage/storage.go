// Package storage is the paged, on-disk representation of an
// MDHF-fragmented warehouse: fact fragments packed into fixed-size pages
// and stored consecutively in allocation order (the layout assumption of
// the paper's I/O model), plus the surviving bitmap fragments, plus a
// persisted directory so stores reopen without rebuilding. The files of
// one epoch are written once, fragment by fragment, by one writer — fed
// from a table (Build) or from an older epoch's files and a delta set
// (Backend.Compact, which copies what the deltas do not touch) — and
// never modified. An executor (executor.go) runs star queries against
// the files with prefetch-granule reads, making the paper's I/O
// accounting physically observable.
//
// Tuple format (matching the paper's 20-byte fact tuples for APB-1):
// one uint16 foreign key per dimension followed by three int32 measures
// (UnitsSold, DollarSales, Cost), little endian.
package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/schema"
)

const (
	factFileName = "fact.dat"
	metaFileName = "meta.dat"
	magic        = 0x4d444846 // "MDHF"
	formatV1     = 1
	// formatV2 appends a per-page CRC32C table to the meta file; pages are
	// verified against it on every physical read (see fault.go).
	formatV2 = 2
	// carryPages is how many pages a compaction copies per read and write.
	carryPages = 16
)

// FragLoc locates one fact fragment inside the fact file.
type FragLoc struct {
	PageOff int64 // first page number
	Pages   int32 // number of pages
	Rows    int32 // number of tuples
}

// Store is an on-disk fact table fragmented per an MDHF spec.
type Store struct {
	star      *schema.Star
	spec      *frag.Spec
	pageSize  int
	tupleSize int
	tpp       int // tuples per page
	file      *os.File
	dir       map[int64]FragLoc
	// order holds the non-empty fragment ids in allocation order.
	order []int64
	// ioDelay is an optional simulated disk access time (ns) added to
	// every physical read on the single implicit disk (see SetIODelay).
	// Atomic: read by N fragment workers while SetIODelay may store.
	ioDelay atomic.Int64
	// disks and placement decluster reads across per-disk serialized
	// queues when non-nil (see Decluster in disk.go).
	disks     *DiskSet
	placement alloc.Placement
	// pool, when non-nil, caches prefetch-granule reads under poolEpoch
	// (see AttachPool and ReadGranule).
	pool      *BufPool
	poolEpoch int64
	// sums holds one CRC32C per fact-file page, indexed by absolute page
	// number — computed at Build, persisted in the formatV2 meta file, and
	// verified on every physical read (nil for pre-checksum V1 stores).
	sums []uint32
}

// AttachPool routes this store's granule reads through a shared buffer
// pool, keying its entries under the given serving epoch. Must be called
// before queries run (backend assembly time); a nil pool detaches.
func (s *Store) AttachPool(p *BufPool, epoch int64) {
	s.pool, s.poolEpoch = p, epoch
}

// Pooled reports whether a buffer pool is attached.
func (s *Store) Pooled() bool { return s.pool != nil }

// SetIODelay adds a simulated disk access time to every physical read —
// the per-access latency of the paper's Table 4 disk model (seek + settle
// + controller), for measuring intra-query I/O parallelism independently
// of the page cache. Zero (the default) disables it. Safe to call
// concurrently with running queries. On a declustered store the delay is
// applied to every disk of the set.
func (s *Store) SetIODelay(d time.Duration) {
	if s.disks != nil {
		s.disks.SetIODelay(d)
		return
	}
	s.ioDelay.Store(int64(d))
}

// TupleSize returns the on-disk tuple size for a schema: 2 bytes per
// dimension key plus 12 bytes of measures.
func TupleSize(star *schema.Star) int { return 2*len(star.Dims) + 12 }

// TuplesPerPage returns how many tuples fit one page.
func TuplesPerPage(star *schema.Star) int { return star.PageSize / TupleSize(star) }

// Build partitions the table per spec and writes the fact file and
// directory into dir (created if needed). Fragments are written in
// allocation order; each fragment starts on a fresh page. It is the
// fragment writer with every fragment new and its rows taken from the
// table; Backend.Compact is the same writer over an old epoch's pages
// and a delta set.
func Build(dirPath string, t *data.Table, spec *frag.Spec) (*Store, error) {
	star := t.Star
	for i := range star.Dims {
		if star.Dims[i].LeafCard() > 1<<16 {
			return nil, fmt.Errorf("storage: dimension %s cardinality %d exceeds uint16 keys", star.Dims[i].Name, star.Dims[i].LeafCard())
		}
	}

	// Partition row indices by fragment.
	byFrag := make(map[int64][]int32)
	buf := make([]int, len(star.Dims))
	for i := 0; i < t.N(); i++ {
		id := spec.IDOf(t.LeafMembers(i, buf))
		byFrag[id] = append(byFrag[id], int32(i))
	}
	order := make([]int64, 0, len(byFrag))
	for id := range byFrag {
		order = append(order, id)
	}
	slices.Sort(order)

	w, err := newFactWriter(dirPath, star, spec)
	if err != nil {
		return nil, err
	}
	cols := kernel.Columns{Dims: t.Dims, Units: t.UnitsSold, Dollars: t.DollarSales, Costs: t.Cost}
	for _, id := range order {
		for _, ri := range byFrag[id] {
			w.add(cols, int(ri))
		}
		w.end(id)
	}
	return w.finish()
}

// factWriter writes one epoch's fact file fragment by fragment, in
// allocation order: the open fragment's rows are encoded into pages
// (add), or taken over from an older epoch's file (carry), until end
// closes it and enters it into the directory. The first write error
// sticks and is reported by finish.
type factWriter struct {
	s    *Store
	dir  string
	page []byte // the open page; bytes past fill are zero
	fill int    // bytes of page in use
	rows int    // rows of the open fragment
	buf  []byte // carry's copy buffer, carryPages long
	err  error
}

func newFactWriter(dirPath string, star *schema.Star, spec *frag.Spec) (*factWriter, error) {
	if err := os.MkdirAll(dirPath, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dirPath, factFileName))
	if err != nil {
		return nil, err
	}
	s := &Store{
		star:      star,
		spec:      spec,
		pageSize:  star.PageSize,
		tupleSize: TupleSize(star),
		tpp:       TuplesPerPage(star),
		file:      f,
		dir:       make(map[int64]FragLoc),
	}
	return &factWriter{s: s, dir: dirPath, page: make([]byte, s.pageSize)}, nil
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

// add appends row i of cols to the open fragment.
func (w *factWriter) add(cols kernel.Columns, i int) {
	if w.err == nil {
		w.err = CheckMeasures(i, cols.Units[i], cols.Dollars[i], cols.Costs[i])
	}
	if w.fill == w.s.tpp*w.s.tupleSize {
		w.flush()
	}
	off := w.fill
	for d := range cols.Dims {
		binary.LittleEndian.PutUint16(w.page[off:], uint16(cols.Dims[d][i]))
		off += 2
	}
	binary.LittleEndian.PutUint32(w.page[off:], uint32(cols.Units[i]))
	binary.LittleEndian.PutUint32(w.page[off+4:], uint32(cols.Dollars[i]))
	binary.LittleEndian.PutUint32(w.page[off+8:], uint32(cols.Costs[i]))
	w.fill = off + 12
	w.rows++
}

// flush writes the open page with its checksum and starts an empty one.
func (w *factWriter) flush() {
	w.write(w.page, pageCRC(w.page))
	clear(w.page[:w.fill])
	w.fill = 0
}

// write appends whole pages and their checksums to the file.
func (w *factWriter) write(pages []byte, sums ...uint32) {
	if w.err != nil {
		return
	}
	if _, err := w.s.file.Write(pages); err != nil {
		w.err = fmt.Errorf("storage: writing fact page %d: %w", len(w.s.sums), err)
		return
	}
	w.s.sums = append(w.s.sums, sums...)
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
	if w.buf == nil {
		w.buf = make([]byte, carryPages*old.pageSize)
	}
	read := func(page int64, buf []byte) {
		if w.err != nil {
			return
		}
		if _, err := old.file.ReadAt(buf, page*int64(old.pageSize)); err != nil {
			w.err = fmt.Errorf("storage: carrying %d fact pages of fragment %d from page %d: %w", len(buf)/old.pageSize, id, page, err)
		}
	}
	for p := 0; p < n; p += carryPages {
		c, first := min(carryPages, n-p), loc.PageOff+int64(p)
		read(first, w.buf[:c*old.pageSize])
		w.write(w.buf[:c*old.pageSize], old.sums[first:first+int64(c)]...)
	}
	if tail > 0 {
		last, page := w.buf[:old.pageSize], loc.PageOff+int64(n)
		read(page, last)
		if w.err == nil {
			w.err = old.verifyPages(last, page, id, page*int64(old.pageSize))
		}
		if w.err == nil {
			w.fill = copy(w.page, last[:tail*old.tupleSize])
		}
	}
}

// end closes the open fragment — a partly filled last page is written
// zero-padded — and enters it into the directory.
func (w *factWriter) end(id int64) {
	if w.fill > 0 {
		w.flush()
	}
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
		w.err = w.s.writeMeta(w.dir)
	}
	if w.err != nil {
		w.s.file.Close()
		return nil, w.err
	}
	return w.s, nil
}

// Tuple is one decoded fact tuple.
type Tuple struct {
	Keys        []uint16
	UnitsSold   int32
	DollarSales int32
	Cost        int32
}

// decodeTuple reads the tuple at off; keys must have len(star.Dims).
func (s *Store) decodeTuple(page []byte, off int, keys []uint16) (Tuple, int) {
	var tp Tuple
	for d := range keys {
		keys[d] = binary.LittleEndian.Uint16(page[off:])
		off += 2
	}
	tp.Keys = keys
	tp.UnitsSold = int32(binary.LittleEndian.Uint32(page[off:]))
	tp.DollarSales = int32(binary.LittleEndian.Uint32(page[off+4:]))
	tp.Cost = int32(binary.LittleEndian.Uint32(page[off+8:]))
	return tp, off + 12
}

// writeMeta persists the directory: magic, version, page size, #frags,
// then (id, pageOff, pages, rows) per fragment, then (formatV2) the
// per-page CRC32C table: a page count followed by one uint32 per page.
func (s *Store) writeMeta(dirPath string) error {
	f, err := os.Create(filepath.Join(dirPath, metaFileName))
	if err != nil {
		return err
	}
	defer f.Close()
	w := func(vals ...int64) error {
		for _, v := range vals {
			if err := binary.Write(f, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := w(magic, formatV2, int64(s.pageSize), int64(len(s.order))); err != nil {
		return err
	}
	for _, id := range s.order {
		loc := s.dir[id]
		if err := w(id, loc.PageOff, int64(loc.Pages), int64(loc.Rows)); err != nil {
			return err
		}
	}
	if err := w(int64(len(s.sums))); err != nil {
		return err
	}
	return binary.Write(f, binary.LittleEndian, s.sums)
}

// Open reopens a store built earlier in dirPath. star and spec must match
// the ones used at build time (only the page size is verified).
func Open(dirPath string, star *schema.Star, spec *frag.Spec) (*Store, error) {
	mf, err := os.Open(filepath.Join(dirPath, metaFileName))
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	r := func() (int64, error) {
		var v int64
		err := binary.Read(mf, binary.LittleEndian, &v)
		return v, err
	}
	mg, err := r()
	if err != nil || mg != magic {
		return nil, fmt.Errorf("storage: bad meta file (magic %x)", mg)
	}
	ver, _ := r()
	if ver != formatV1 && ver != formatV2 {
		return nil, fmt.Errorf("storage: unsupported format %d", ver)
	}
	ps, _ := r()
	if int(ps) != star.PageSize {
		return nil, fmt.Errorf("storage: page size %d != schema %d", ps, star.PageSize)
	}
	n, err := r()
	if err != nil {
		return nil, err
	}
	s := &Store{
		star:      star,
		spec:      spec,
		pageSize:  star.PageSize,
		tupleSize: TupleSize(star),
		tpp:       TuplesPerPage(star),
		dir:       make(map[int64]FragLoc, n),
	}
	for i := int64(0); i < n; i++ {
		id, err := r()
		if err != nil {
			return nil, err
		}
		off, _ := r()
		pages, _ := r()
		rows, err := r()
		if err != nil {
			return nil, err
		}
		s.dir[id] = FragLoc{PageOff: off, Pages: int32(pages), Rows: int32(rows)}
		s.order = append(s.order, id)
	}
	if ver >= formatV2 {
		npages, err := r()
		if err != nil {
			return nil, fmt.Errorf("storage: reading checksum table length: %w", err)
		}
		s.sums = make([]uint32, npages)
		if err := binary.Read(mf, binary.LittleEndian, s.sums); err != nil {
			return nil, fmt.Errorf("storage: reading checksum table: %w", err)
		}
	}
	f, err := os.Open(filepath.Join(dirPath, factFileName))
	if err != nil {
		return nil, err
	}
	s.file = f
	return s, nil
}

// Close releases the underlying file.
func (s *Store) Close() error { return s.file.Close() }

// NumFragments returns the number of non-empty fragments stored.
func (s *Store) NumFragments() int { return len(s.order) }

// Fragments returns the stored fragment ids in allocation order.
func (s *Store) Fragments() []int64 { return s.order }

// Loc returns the location of a fragment, if stored.
func (s *Store) Loc(id int64) (FragLoc, bool) {
	loc, ok := s.dir[id]
	return loc, ok
}

// ReadPages reads `count` pages of fragment id starting at page `start`
// within the fragment (one physical I/O).
func (s *Store) ReadPages(id int64, start, count int) ([]byte, error) {
	return s.ReadPagesInto(nil, id, start, count)
}

// ReadPagesInto is ReadPages reading into buf when its capacity suffices
// (allocating otherwise) — the buffer-reuse variant for the executor's
// per-worker scratch. It returns the filled slice.
func (s *Store) ReadPagesInto(buf []byte, id int64, start, count int) ([]byte, error) {
	return s.ReadPagesCtx(context.Background(), buf, id, start, count)
}

// ReadPagesCtx is ReadPagesInto under a context: the physical read runs
// under the retry policy (backoff between attempts is context-aware and
// a cancelled ctx stops the read before it queues on the disk), every
// page is verified against its stored CRC32C, and failures surface as
// typed *FaultError values locating the disk, file, fragment and byte
// offset.
func (s *Store) ReadPagesCtx(ctx context.Context, buf []byte, id int64, start, count int) ([]byte, error) {
	loc, ok := s.dir[id]
	if !ok {
		return nil, fmt.Errorf("storage: fragment %d not stored", id)
	}
	if start < 0 || start+count > int(loc.Pages) {
		return nil, fmt.Errorf("storage: fragment %d pages [%d,%d) out of fragment's %d", id, start, start+count, loc.Pages)
	}
	n := count * s.pageSize
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	absPage := loc.PageOff + int64(start)
	byteOff := absPage * int64(s.pageSize)
	read := func() error {
		if s.disks == nil {
			if d := s.ioDelay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
		if _, err := s.file.ReadAt(buf, byteOff); err != nil {
			return fmt.Errorf("storage: reading %d fact pages of fragment %d at offset %d: %w", count, id, byteOff, err)
		}
		return nil
	}
	var verify func() error
	if s.sums != nil {
		verify = func() error { return s.verifyPages(buf, absPage, id, byteOff) }
	}
	site := faultSite{file: "fact", frag: id, off: byteOff}
	disk := 0
	if s.disks != nil {
		disk = s.placement.FactDisk(id)
	}
	corrupt := func() { corruptPages(buf, s.pageSize) }
	if err := retryRead(ctx, s.disks, disk, count, site, read, corrupt, verify); err != nil {
		return nil, err
	}
	return buf, nil
}

// verifyPages checks each page of buf against the checksum table.
func (s *Store) verifyPages(buf []byte, absPage, id int64, byteOff int64) error {
	for i := 0; i*s.pageSize < len(buf); i++ {
		page := buf[i*s.pageSize : (i+1)*s.pageSize]
		want := s.sums[absPage+int64(i)]
		if got := pageCRC(page); got != want {
			return &FaultError{
				File: "fact", Frag: id, Offset: byteOff + int64(i*s.pageSize), Kind: FaultChecksum,
				Err: fmt.Errorf("page %d crc32c %08x != stored %08x", absPage+int64(i), got, want),
			}
		}
	}
	return nil
}

// ReadGranule is the pool-aware ReadPagesInto used by the executor's
// prefetch pipeline. With no pool attached it behaves exactly like
// ReadPagesInto (data == the grown buf, ent nil). With a pool, a hit
// returns the resident pages with zero physical I/O and a miss reads into
// a fresh buffer and offers it to the pool. When ent is non-nil the
// returned data belongs to the pool and is pinned — the caller must
// ent.Unpin() once done aggregating from it (and must not retain or reuse
// data as scratch); when ent is nil the data is the caller's private
// buffer. hit reports whether the pool served the read.
func (s *Store) ReadGranule(buf []byte, id int64, start, count int) (data []byte, ent *PoolEntry, hit bool, err error) {
	return s.ReadGranuleCtx(context.Background(), buf, id, start, count)
}

// ReadGranuleCtx is ReadGranule under a context (see ReadPagesCtx for
// the retry/verification semantics of the miss path; pool hits never
// touch the disk and need no verification).
func (s *Store) ReadGranuleCtx(ctx context.Context, buf []byte, id int64, start, count int) (data []byte, ent *PoolEntry, hit bool, err error) {
	if s.pool == nil {
		data, err = s.ReadPagesCtx(ctx, buf, id, start, count)
		return data, nil, false, err
	}
	key := PoolKey{Epoch: s.poolEpoch, File: PoolFact, Frag: id, Off: int32(start), Len: int32(count)}
	if e := s.pool.Get(key); e != nil {
		if s.disks != nil {
			s.disks.notePoolHit(s.placement.FactDisk(id), count)
		}
		return e.Data(), e, true, nil
	}
	// Miss: read into a fresh buffer the pool can take ownership of (the
	// caller's scratch would be overwritten by its next read).
	data, err = s.ReadPagesCtx(ctx, make([]byte, 0, count*s.pageSize), id, start, count)
	if err != nil {
		return nil, nil, false, err
	}
	if e := s.pool.Add(key, data); e != nil {
		return e.Data(), e, false, nil
	}
	return data, nil, false, nil // pool full of pinned entries: serve privately
}

// ScanFragment calls fn for every tuple of the fragment, reading it page
// by page into one reused buffer. keys is reused across calls.
func (s *Store) ScanFragment(id int64, fn func(Tuple)) error {
	loc, ok := s.dir[id]
	if !ok {
		return nil // empty fragment
	}
	tpp := s.tpp
	keys := make([]uint16, len(s.star.Dims))
	page := make([]byte, s.pageSize)
	remaining := int(loc.Rows)
	var err error
	for p := 0; p < int(loc.Pages); p++ {
		page, err = s.ReadPagesInto(page, id, p, 1)
		if err != nil {
			return err
		}
		n := tpp
		if remaining < n {
			n = remaining
		}
		off := 0
		for i := 0; i < n; i++ {
			var tp Tuple
			tp, off = s.decodeTuple(page, off, keys)
			fn(tp)
		}
		remaining -= n
	}
	return nil
}
