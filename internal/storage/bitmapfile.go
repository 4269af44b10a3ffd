package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/bitmap"
	"repro/internal/frag"
	"repro/internal/schema"
)

const bitmapFileName = "bitmaps.dat"

// BitmapDesc identifies one stored bitmap, in the fixed enumeration order
// of the surviving bitmaps (Section 4.2). It is the shared frag.BitmapRef
// enumeration, so the on-disk file and the delta segments agree on what
// is stored and in which order.
type BitmapDesc = frag.BitmapRef

// BitmapFile stores the surviving bitmap fragments of a fragmented fact
// table, partitioned congruently with the fact fragments: all bitmap
// fragments of fact fragment i are stored together, in enumeration
// order, as one block of allocation units (frag.PackBitmapUnits). A
// bitmap fragment of a page or more is a unit of its own whole pages —
// the paper's regime, which threshold (i) of Section 4.7 exists to keep a
// fragmentation in. Smaller fragments share one-page units, so a fact
// fragment whose bitmap fragments are all tiny costs one bitmap I/O per
// subquery instead of one per bitmap, most of it padding. The unit is
// what one I/O reads, what the buffer pool caches and what the placement
// assigns a disk to. With Compress enabled the payloads are WAH words
// (the space reduction the paper mentions in Section 3.2), which shrinks
// multi-page fragments towards a single unit. Compression is a storage
// format only: decodeInto turns either payload into the Bitset the
// executor works on, and nothing after it knows which one the file has.
type BitmapFile struct {
	star *schema.Star
	spec *frag.Spec
	// ix is the surviving-bitmap enumeration and the query -> bitmap plan
	// shared with the delta segments.
	ix       *frag.DeltaIndex
	pageSize int
	file     *os.File
	// blocks is the directory: where each fact fragment's block starts and,
	// per stored bitmap, its (unit, byte offset, length) within the block.
	blocks     map[int64]bitmapBlock
	compressed bool
	// ioDelay is an optional simulated disk access time (ns) added to
	// every physical read on the single implicit disk (see SetIODelay).
	// Atomic: read by N fragment workers while SetIODelay may store.
	ioDelay atomic.Int64
	// disks and placement decluster unit reads across per-disk serialized
	// queues when non-nil (see Decluster in disk.go).
	disks     *DiskSet
	placement alloc.Placement
	// pool, when non-nil, caches unit reads under poolEpoch (see AttachPool
	// on Store; the pool is shared with the fact store).
	pool      *BufPool
	poolEpoch int64
	// sums holds one CRC32C per bitmap-file page, indexed by absolute page
	// number — computed at build and verified on every physical read, so a
	// corrupt shared page fails every bitmap fragment stored in it. The
	// file is only ever written in the process that serves it (by a build,
	// or by a compaction that carries the entries of the blocks it copies),
	// so the table lives in memory only.
	sums []uint32
}

// bitmapBlock is one fact fragment's directory entry.
type bitmapBlock struct {
	page  int64 // first page of the block in the file
	rows  int32
	slots []frag.BitmapSlot // per stored bitmap, in enumeration order
}

// pages returns the block's size: its units are contiguous.
func (b bitmapBlock) pages() int64 {
	if len(b.slots) == 0 {
		return 0
	}
	last := b.slots[len(b.slots)-1]
	return int64(last.Page + last.Pages)
}

// AttachPool routes this file's unit reads through a shared buffer pool,
// keying its entries under the given serving epoch. Must be called
// before queries run; a nil pool detaches.
func (bf *BitmapFile) AttachPool(p *BufPool, epoch int64) {
	bf.pool, bf.poolEpoch = p, epoch
}

// SetIODelay adds a simulated disk access time to every bitmap unit
// read — the counterpart of Store.SetIODelay for the bitmap file. Zero
// (the default) disables it. Safe to call concurrently with running
// queries. On a declustered file the delay is applied to every disk of
// the shared set.
func (bf *BitmapFile) SetIODelay(d time.Duration) {
	if bf.disks != nil {
		bf.disks.SetIODelay(d)
		return
	}
	bf.ioDelay.Store(int64(d))
}

// BuildBitmaps constructs and persists the surviving bitmap fragments for
// an already-built fact store, uncompressed.
func BuildBitmaps(dirPath string, s *Store, icfg frag.IndexConfig) (*BitmapFile, error) {
	return buildBitmaps(dirPath, s, icfg, false)
}

// BuildCompressedBitmaps is BuildBitmaps with WAH compression applied to
// every bitmap fragment before it is laid into its unit.
func BuildCompressedBitmaps(dirPath string, s *Store, icfg frag.IndexConfig) (*BitmapFile, error) {
	return buildBitmaps(dirPath, s, icfg, true)
}

// buildBitmaps writes the bitmap file of a store whose every fragment is
// new: each block is built from the fragment's rows.
func buildBitmaps(dirPath string, s *Store, icfg frag.IndexConfig, compress bool) (*BitmapFile, error) {
	ix, err := frag.NewDeltaIndex(s.spec, icfg)
	if err != nil {
		return nil, err
	}
	return writeBitmaps(dirPath, s, ix, compress, nil, nil)
}

// writeBitmaps writes the bitmap file of store s block by block, in
// allocation order: a fragment that old holds and deltas has no segment
// of has its block carried over from old (nil: nothing is carried);
// every other block is built from the fragment's rows in s. On any error
// the half-written file is closed and removed, so a failed build (a
// failed compaction) leaves nothing behind in the directory.
func writeBitmaps(dirPath string, s *Store, ix *frag.DeltaIndex, compress bool, old *BitmapFile, deltas *frag.DeltaSet) (_ *BitmapFile, err error) {
	path := filepath.Join(dirPath, bitmapFileName)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(path)
		}
	}()
	bf := &BitmapFile{
		star:       s.star,
		spec:       s.spec,
		ix:         ix,
		pageSize:   s.pageSize,
		file:       f,
		blocks:     make(map[int64]bitmapBlock, len(s.order)),
		compressed: compress,
	}
	keys := make([][]int32, len(s.star.Dims))
	payloads := make([][]byte, ix.NumBitmaps())
	var block []byte
	for _, id := range s.order {
		if old != nil && len(deltas.Of(id)) == 0 {
			if blk, ok := old.blocks[id]; ok {
				if block, err = bf.carryBlock(old, id, blk, block); err != nil {
					return nil, err
				}
				continue
			}
		}
		if block, err = bf.buildBlock(s, id, keys, payloads, block); err != nil {
			return nil, err
		}
	}
	return bf, nil
}

// buildBlock computes the fragment's bitmap fragments from its rows in
// the store — read back page by page, every page verified — and writes
// them as the fragment's block. keys, payloads and block are reusable
// buffers; block is returned grown.
func (bf *BitmapFile) buildBlock(s *Store, id int64, keys [][]int32, payloads [][]byte, block []byte) ([]byte, error) {
	for d := range keys {
		keys[d] = keys[d][:0]
	}
	err := s.ScanFragment(id, func(tp Tuple) {
		for d := range tp.Keys {
			keys[d] = append(keys[d], int32(tp.Keys[d]))
		}
	})
	if err != nil {
		return block, err
	}
	rows := s.dir[id].Rows
	for i, desc := range bf.ix.Descs() {
		bs := buildBitmapFragment(bf.star, bf.ix.Layout(desc.Dim), desc, keys[desc.Dim])
		if bf.compressed {
			payloads[i] = encodeCompressed(bitmap.Compress(bs))
		} else {
			payloads[i] = make([]byte, (rows+7)/8)
			packBits(bs, payloads[i])
		}
	}
	return bf.writeBlock(id, rows, payloads, block)
}

// writeBlock packs one fact fragment's payloads into allocation units
// and appends the block to the file. block is the reusable page buffer,
// returned grown.
func (bf *BitmapFile) writeBlock(id int64, rows int32, payloads [][]byte, block []byte) ([]byte, error) {
	sizes := make([]int, len(payloads))
	for i, p := range payloads {
		sizes[i] = len(p)
	}
	blk := bitmapBlock{
		rows:  rows,
		slots: frag.PackBitmapUnits(make([]frag.BitmapSlot, 0, len(payloads)), sizes, bf.pageSize),
	}
	block = sized(block, int(blk.pages())*bf.pageSize)
	clear(block)
	for i, sl := range blk.slots {
		copy(block[int(sl.Page)*bf.pageSize+int(sl.Off):], payloads[i])
	}
	sums := make([]uint32, 0, blk.pages())
	for off := 0; off < len(block); off += bf.pageSize {
		sums = append(sums, pageCRC(block[off:off+bf.pageSize]))
	}
	return block, bf.appendBlock(id, blk, block, sums)
}

// carryBlock appends fragment id's block of the old epoch's file byte
// for byte, with its checksum entries: slots are block-relative, so only
// the block's first page is re-based. Like factWriter.carry it reads
// straight off the old file and neither decodes nor verifies.
func (bf *BitmapFile) carryBlock(old *BitmapFile, id int64, blk bitmapBlock, block []byte) ([]byte, error) {
	block = sized(block, int(blk.pages())*bf.pageSize)
	byteOff := blk.page * int64(bf.pageSize)
	if _, err := old.file.ReadAt(block, byteOff); err != nil {
		return block, fmt.Errorf("storage: carrying bitmap block of fragment %d at offset %d: %w", id, byteOff, err)
	}
	return block, bf.appendBlock(id, blk, block, old.sums[blk.page:blk.page+blk.pages()])
}

// appendBlock is the one place a block reaches the file: its pages are
// appended, and it enters the directory and the checksum table at the
// page it landed on.
func (bf *BitmapFile) appendBlock(id int64, blk bitmapBlock, pages []byte, sums []uint32) error {
	if _, err := bf.file.Write(pages); err != nil {
		return fmt.Errorf("storage: writing bitmap block of fragment %d: %w", id, err)
	}
	blk.page = int64(len(bf.sums))
	bf.sums = append(bf.sums, sums...)
	bf.blocks[id] = blk
	return nil
}

// sized returns buf with length n, reallocated when its capacity is short.
func sized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// encodeCompressed serialises a WAH bitmap: uint32 bit length, uint32 word
// count, then the words, little endian.
func encodeCompressed(c *bitmap.Compressed) []byte {
	words := c.Words()
	out := make([]byte, 8+8*len(words))
	putU32(out, uint32(c.Len()))
	putU32(out[4:], uint32(len(words)))
	for i, w := range words {
		putU64(out[8+8*i:], w)
	}
	return out
}

// decodeInto is the one place a stored bitmap fragment becomes an
// operand: payload — packed bits, or on a compressed file WAH words,
// which pass through the caller's scratch wah — is decoded into dst, a
// Bitset of the fragment's rows.
func (bf *BitmapFile) decodeInto(dst *bitmap.Bitset, wah *bitmap.Compressed, payload []byte, rows int) {
	if !bf.compressed {
		unpackBitsInto(dst, payload, rows)
		return
	}
	decodeCompressedInto(wah, payload)
	wah.DecompressInto(dst)
}

// decodeCompressedInto deserialises a WAH bitmap into dst, reusing its
// word storage.
func decodeCompressedInto(dst *bitmap.Compressed, buf []byte) {
	n := int(getU32(buf))
	k := int(getU32(buf[4:]))
	words := dst.ResetWords(n, k)
	for i := range words {
		words[i] = getU64(buf[8+8*i:])
	}
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}
func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

// buildBitmapFragment computes one bitmap over the fragment's rows; l is
// the dimension's encoding layout (nil for a simple index).
func buildBitmapFragment(star *schema.Star, l *bitmap.Layout, desc BitmapDesc, keys []int32) *bitmap.Bitset {
	dim := &star.Dims[desc.Dim]
	bs := bitmap.New(len(keys))
	if desc.Simple {
		for i, k := range keys {
			if dim.Ancestor(dim.Leaf(), int(k), desc.Level) == desc.Member {
				bs.Set(i)
			}
		}
		return bs
	}
	shift := uint(l.TotalBits() - 1 - desc.Bit)
	for i, k := range keys {
		if l.Encode(int(k))>>shift&1 == 1 {
			bs.Set(i)
		}
	}
	return bs
}

// packBits serialises a bitset into buf, 8 rows per byte, LSB first.
func packBits(bs *bitmap.Bitset, buf []byte) {
	bs.ForEach(func(i int) {
		buf[i/8] |= 1 << uint(i%8)
	})
}

// unpackBitsInto deserialises n bits from buf into bs, reusing its
// storage, 8 bits per byte byte-wise rather than bit probing.
func unpackBitsInto(bs *bitmap.Bitset, buf []byte, n int) {
	bs.Reinit(n)
	nb := (n + 7) / 8
	for i := 0; i < nb; i++ {
		if b := buf[i]; b != 0 {
			bs.OrByte(i*8, b)
		}
	}
}

// NumBitmaps returns the number of surviving bitmaps stored per fragment.
func (bf *BitmapFile) NumBitmaps() int { return bf.ix.NumBitmaps() }

// Descs returns the stored bitmap enumeration.
func (bf *BitmapFile) Descs() []BitmapDesc { return bf.ix.Descs() }

// Compressed reports whether the file stores WAH-compressed fragments.
func (bf *BitmapFile) Compressed() bool { return bf.compressed }

// TotalPages returns the file's size in pages — the sum of the blocks of
// the directory, which WAH compression and unit sharing both reduce.
func (bf *BitmapFile) TotalPages() int64 {
	var t int64
	for _, blk := range bf.blocks {
		t += blk.pages()
	}
	return t
}

// readUnit reads the allocation unit holding slot sl of the fragment's
// block, which starts at blockPage — one bitmap I/O, however many bitmap fragments share the unit —
// consulting the buffer pool first when one is attached. data is the
// unit's pages; scratch is the caller's reusable buffer (grown when the
// unpooled read needed more room — store it back). When ent is non-nil
// the data is pool-resident and pinned: the caller must ent.Unpin() after
// decoding (the decode copies, so the pin is short). Pool hit/miss
// accounting folds into st when non-nil.
func (bf *BitmapFile) readUnit(ctx context.Context, buf []byte, fragID, blockPage int64, sl frag.BitmapSlot, st *IOStats) (data, scratch []byte, ent *PoolEntry, err error) {
	pages := int(sl.Pages)
	n := pages * bf.pageSize
	if bf.pool != nil {
		key := PoolKey{Epoch: bf.poolEpoch, File: PoolBitmap, Frag: fragID, Off: sl.Unit, Len: sl.Pages}
		if e := bf.pool.Get(key); e != nil {
			if bf.disks != nil {
				bf.disks.notePoolHit(bf.placement.BitmapDisk(fragID, int(sl.Unit)), pages)
			}
			if st != nil {
				st.PoolHits++
				st.PoolBytes += int64(n)
			}
			return e.Data(), buf, e, nil
		}
		if st != nil {
			st.PoolMisses++
		}
		// Miss: read into a fresh buffer the pool can own.
		fresh := make([]byte, n)
		if err := bf.readUnitAt(ctx, fresh, fragID, blockPage, sl); err != nil {
			return nil, buf, nil, err
		}
		if e := bf.pool.Add(key, fresh); e != nil {
			return e.Data(), buf, e, nil
		}
		return fresh, buf, nil, nil // pool rejected: serve privately
	}

	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if err := bf.readUnitAt(ctx, buf, fragID, blockPage, sl); err != nil {
		return nil, buf, nil, err
	}
	return buf, buf, nil, nil
}

// readUnitAt performs the physical read of a unit into dst — one I/O
// through the queue of the disk the placement assigns the unit (or the
// implicit single disk's delay), retried per the disk set's retry policy
// and verified page by page against the checksum table (see fault.go).
func (bf *BitmapFile) readUnitAt(ctx context.Context, dst []byte, fragID, blockPage int64, sl frag.BitmapSlot) error {
	off := blockPage + int64(sl.Page)
	pages := int(sl.Pages)
	byteOff := off * int64(bf.pageSize)
	read := func() error {
		if bf.disks == nil {
			if d := bf.ioDelay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
		if _, err := bf.file.ReadAt(dst, byteOff); err != nil {
			return fmt.Errorf("storage: reading bitmap unit %d of fragment %d at offset %d: %w", sl.Unit, fragID, byteOff, err)
		}
		return nil
	}
	verify := func() error {
		for i := 0; i < pages; i++ {
			page := dst[i*bf.pageSize : (i+1)*bf.pageSize]
			want := bf.sums[off+int64(i)]
			if got := pageCRC(page); got != want {
				return &FaultError{
					File: "bitmaps", Frag: fragID, Offset: byteOff + int64(i*bf.pageSize), Kind: FaultChecksum,
					Err: fmt.Errorf("page %d crc32c %08x != stored %08x", off+int64(i), got, want),
				}
			}
		}
		return nil
	}
	site := faultSite{file: "bitmaps", frag: fragID, off: byteOff}
	disk := 0
	if bf.disks != nil {
		disk = bf.placement.BitmapDisk(fragID, int(sl.Unit))
	}
	corrupt := func() { corruptPages(dst, bf.pageSize) }
	return retryRead(ctx, bf.disks, disk, pages, site, read, corrupt, verify)
}

// unitSet is the units a worker has read for the one fragment it is
// processing: every operand of the query's plan decodes out of the held
// unit's pages, so a unit is read once however many operands it holds.
// begin keys the set by file and fragment and drops whatever was held, so
// a reused scratch can never serve another block's bytes.
type unitSet struct {
	bf   *BitmapFile
	frag int64
	blk  bitmapBlock
	held []heldUnit // the first n are in use; the rest keep their buffers
	n    int
}

// heldUnit is one read unit: data is its pages — buf, the slot's private
// reusable buffer, or pool-resident bytes pinned through ent.
type heldUnit struct {
	unit int32
	data []byte
	buf  []byte
	ent  *PoolEntry
}

// begin releases the previous fragment's units and binds the set to the
// fragment's block.
func (us *unitSet) begin(bf *BitmapFile, fragID int64) error {
	us.release()
	blk, ok := bf.blocks[fragID]
	if !ok {
		return fmt.Errorf("storage: fragment %d has no bitmaps", fragID)
	}
	us.bf, us.frag, us.blk = bf, fragID, blk
	return nil
}

// payload returns the stored bytes of bitmap di together with its slot,
// reading the slot's unit unless the set already holds it; fresh reports
// that this call paid the unit read (a disk I/O or a pool lookup, counted
// into st). The bytes are valid until release or the next begin.
func (us *unitSet) payload(ctx context.Context, di int, st *IOStats) (p []byte, sl frag.BitmapSlot, fresh bool, err error) {
	sl = us.blk.slots[di]
	var h *heldUnit
	for i := range us.held[:us.n] {
		if us.held[i].unit == sl.Unit {
			h = &us.held[i]
			break
		}
	}
	if h == nil {
		if us.n == len(us.held) {
			us.held = append(us.held, heldUnit{})
		}
		h = &us.held[us.n]
		if h.data, h.buf, h.ent, err = us.bf.readUnit(ctx, h.buf, us.frag, us.blk.page, sl, st); err != nil {
			return nil, sl, false, err
		}
		h.unit, fresh = sl.Unit, true
		us.n++
	}
	return h.data[sl.Off : sl.Off+sl.Len], sl, fresh, nil
}

// release unpins the held units; their private buffers stay for reuse.
func (us *unitSet) release() {
	for i := range us.held[:us.n] {
		if ent := us.held[i].ent; ent != nil {
			ent.Unpin()
		}
		us.held[i].data, us.held[i].ent = nil, nil
	}
	us.n = 0
}

// ReadCompressedFragment reads the bitmap fragment identified by desc for
// the given fact fragment — one physical I/O of the unit it is stored in
// — and returns its stored WAH words directly, without decompressing,
// together with the unit's page count. The file must have been built
// with compression.
func (bf *BitmapFile) ReadCompressedFragment(fragID int64, desc BitmapDesc) (*bitmap.Compressed, int, error) {
	if !bf.compressed {
		return nil, 0, fmt.Errorf("storage: bitmap file is not compressed")
	}
	di, ok := bf.ix.Pos(desc)
	if !ok {
		return nil, 0, fmt.Errorf("storage: bitmap %+v not stored (eliminated by the fragmentation?)", desc)
	}
	var us unitSet
	if err := us.begin(bf, fragID); err != nil {
		return nil, 0, err
	}
	defer us.release()
	payload, sl, _, err := us.payload(context.Background(), di, nil)
	if err != nil {
		return nil, 0, err
	}
	c := &bitmap.Compressed{}
	decodeCompressedInto(c, payload)
	return c, int(sl.Pages), nil
}

// Close releases the underlying file.
func (bf *BitmapFile) Close() error { return bf.file.Close() }
