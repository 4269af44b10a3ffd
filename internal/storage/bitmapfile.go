package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

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
//
// The paged file shares the store's disk set, and a unit's reads queue
// on the disk BitmapDisk maps it to. Its checksum table is computed at
// build, so a corrupt shared page fails every bitmap fragment stored in
// it. The file is only ever written in the process that serves it (by a
// build, or by a compaction that carries the entries of the blocks it
// copies), so the table lives in memory only.
type BitmapFile struct {
	pagedFile
	star *schema.Star
	spec *frag.Spec
	// ix is the surviving-bitmap enumeration and the query -> bitmap plan
	// shared with the delta segments.
	ix *frag.DeltaIndex
	// blocks is the directory: where each fact fragment's block starts and,
	// per stored bitmap, its (unit, byte offset, length) within the block.
	blocks     map[int64]bitmapBlock
	compressed bool
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

// BuildBitmaps constructs and persists the surviving bitmap fragments for
// an already-built fact store, uncompressed.
func BuildBitmaps(dirPath string, s *Store, icfg frag.IndexConfig) (*BitmapFile, error) {
	return buildBitmaps(dirPath, s, icfg, false, new(buildScratch))
}

// buildBitmaps writes the bitmap file of a store whose every fragment is
// new: each block is built from the fragment's rows, through sc.
func buildBitmaps(dirPath string, s *Store, icfg frag.IndexConfig, compress bool, sc *buildScratch) (*BitmapFile, error) {
	ix, err := frag.NewDeltaIndex(s.spec, icfg)
	if err != nil {
		return nil, err
	}
	return writeBitmaps(dirPath, s, ix, compress, nil, nil, sc)
}

// writeBitmaps writes the bitmap file of store s block by block, in
// allocation order: a fragment that old holds and deltas has no segment
// of has its block carried over from old (nil: nothing is carried);
// every other block is built from the fragment's rows in s, in sc's
// buffers, which are grown for the largest block rebuilt. The file
// reads through s's disk set and placement. On any error
// the half-written file is closed and removed, so a failed build (a
// failed compaction) leaves nothing behind in the directory.
func writeBitmaps(dirPath string, s *Store, ix *frag.DeltaIndex, compress bool, old *BitmapFile, deltas *frag.DeltaSet, sc *buildScratch) (_ *BitmapFile, err error) {
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
		pagedFile:  pagedFile{file: f, name: "bitmaps", pageSize: s.pageSize, disks: s.disks, placement: s.placement},
		star:       s.star,
		spec:       s.spec,
		ix:         ix,
		blocks:     make(map[int64]bitmapBlock, len(s.order)),
		compressed: compress,
	}
	carried := func(id int64) (bitmapBlock, bool) {
		if old == nil || len(deltas.Of(id)) > 0 {
			return bitmapBlock{}, false
		}
		blk, ok := old.blocks[id]
		return blk, ok
	}
	var most int32 // rows of the largest fragment rebuilt
	for _, id := range s.order {
		if _, ok := carried(id); !ok {
			most = max(most, s.dir[id].Rows)
		}
	}
	sc.keys, sc.dims, sc.payloads = grow(sc.keys, len(s.star.Dims)), grow(sc.dims, len(s.star.Dims)), grow(sc.payloads, ix.NumBitmaps())
	for d := range sc.keys {
		sc.keys[d] = grow(sc.keys[d], int(most))
	}
	sc.block = grow(sc.block, min((int(most)+s.tpp-1)/s.tpp, carryPages)*s.pageSize)
	for _, id := range s.order {
		if blk, ok := carried(id); ok {
			err = bf.carryBlock(old, id, blk, sc)
		} else {
			err = bf.buildBlock(s, id, sc)
		}
		if err != nil {
			return nil, err
		}
	}
	return bf, nil
}

// buildBlock computes the fragment's bitmap fragments from its rows in
// the store — read back into sc.block with one read per run of up to
// carryPages pages (one read for all but the largest fragments), every
// page verified, and decoded straight off the pages — and writes them as
// the fragment's block.
func (bf *BitmapFile) buildBlock(s *Store, id int64, sc *buildScratch) error {
	loc := s.dir[id]
	rows, keys := int(loc.Rows), sc.keys
	for d := range keys {
		keys[d] = keys[d][:rows]
	}
	for run := 0; run < int(loc.Pages); run += carryPages {
		pages, err := s.ReadPagesInto(sc.block, id, run, min(carryPages, int(loc.Pages)-run))
		if err != nil {
			return err
		}
		for p := 0; p*s.pageSize < len(pages); p++ {
			page, lo := s.pageCols(pages[p*s.pageSize:], sc.dims), (run+p)*s.tpp
			for d, col := range keys {
				out := col[lo:min(lo+s.tpp, rows)]
				convert(out, page.Dims[d][:len(out)])
			}
		}
	}
	for i, desc := range bf.ix.Descs() {
		bs := buildBitmapFragment(&sc.bits, bf.star, bf.ix.Layout(desc.Dim), desc, keys[desc.Dim])
		if bf.compressed {
			sc.payloads[i] = encodeCompressed(sc.payloads[i], bitmap.CompressInto(&sc.wah, bs))
		} else {
			sc.payloads[i] = grow(sc.payloads[i], (rows+7)/8)
			packBits(bs, sc.payloads[i])
		}
	}
	return bf.writeBlock(id, loc.Rows, sc)
}

// writeBlock packs one fact fragment's payloads, sc.payloads, into
// allocation units laid out in sc.block and appends the block to the
// file.
func (bf *BitmapFile) writeBlock(id int64, rows int32, sc *buildScratch) error {
	sc.sizes = grow(sc.sizes, len(sc.payloads))
	for i, p := range sc.payloads {
		sc.sizes[i] = len(p)
	}
	blk := bitmapBlock{
		rows:  rows,
		slots: frag.PackBitmapUnits(make([]frag.BitmapSlot, 0, len(sc.payloads)), sc.sizes, bf.pageSize),
	}
	sc.block = grow(sc.block, int(blk.pages())*bf.pageSize)
	clear(sc.block)
	for i, sl := range blk.slots {
		copy(sc.block[int(sl.Page)*bf.pageSize+int(sl.Off):], sc.payloads[i])
	}
	sc.sums = grow(sc.sums, int(blk.pages()))
	for i := range sc.sums {
		sc.sums[i] = pageCRC(sc.block[i*bf.pageSize : (i+1)*bf.pageSize])
	}
	var err error
	blk.page, err = bf.appendPages(sc.block, sc.sums)
	bf.blocks[id] = blk
	return err
}

// carryBlock appends fragment id's block of the old epoch's file byte
// for byte, with its checksum entries: slots are block-relative, so only
// the block's first page is re-based. Like factWriter.carry it reads
// straight off the old file, through sc.block, and neither decodes nor
// verifies.
func (bf *BitmapFile) carryBlock(old *BitmapFile, id int64, blk bitmapBlock, sc *buildScratch) error {
	sc.block = grow(sc.block, int(blk.pages())*bf.pageSize)
	byteOff := blk.page * int64(bf.pageSize)
	if _, err := old.file.ReadAt(sc.block, byteOff); err != nil {
		return fmt.Errorf("storage: carrying bitmap block of fragment %d at offset %d: %w", id, byteOff, err)
	}
	var err error
	blk.page, err = bf.appendPages(sc.block, old.sums[blk.page:blk.page+blk.pages()])
	bf.blocks[id] = blk
	return err
}

// sized returns buf with length n, reallocated when its capacity is short.
func sized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// encodeCompressed serialises a WAH bitmap into out, resized (every byte
// is written): uint32 bit length, uint32 word count, then the words,
// little endian.
func encodeCompressed(out []byte, c *bitmap.Compressed) []byte {
	words := c.Words()
	out = grow(out, 8+8*len(words))
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

// buildBitmapFragment computes one bitmap over the fragment's rows into
// bs, reusing its storage, and returns it; l is the dimension's encoding
// layout (nil for a simple index).
func buildBitmapFragment(bs *bitmap.Bitset, star *schema.Star, l *bitmap.Layout, desc BitmapDesc, keys []int32) *bitmap.Bitset {
	var rule bitmap.KeyRule
	if desc.Simple {
		dim := &star.Dims[desc.Dim]
		lo, hi := dim.DescendantRange(desc.Level, desc.Member, dim.Leaf())
		rule.Lo, rule.Hi = int32(lo), int32(hi)
	} else {
		rule.Codes, rule.Shift = l.Codes(), uint(l.TotalBits()-1-desc.Bit)
	}
	bs.FromKeys(keys, rule)
	return bs
}

// packBits serialises a bitset into buf, 8 rows per byte, LSB first:
// every byte of buf, (Len+7)/8 long, is written off the bitset's words.
func packBits(bs *bitmap.Bitset, buf []byte) {
	for i := range buf {
		buf[i] = byte(bs.Words()[i/8] >> (8 * (i % 8)))
	}
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
// reading the slot's unit unless the set already holds it — one bitmap
// I/O on the disk BitmapDisk assigns the unit, however many bitmap
// fragments share it, or a pool hit; fresh reports that this call paid
// the unit read, and st (when non-nil) counts how the pool served it.
// The bytes are valid until release or the next begin.
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
		bf := us.bf
		key := PoolKey{File: PoolBitmap, Frag: us.frag, Off: sl.Unit, Len: sl.Pages}
		var hit bool
		h.data, h.ent, hit, err = bf.readPooled(ctx, h.buf, key, us.blk.page+int64(sl.Page), bf.placement.BitmapDisk(us.frag, int(sl.Unit)))
		if err != nil {
			return nil, sl, false, err
		}
		if bf.pool == nil {
			h.buf = h.data // grown: the slot's buffer for its next read
		} else if st != nil {
			st.notePool(hit, len(h.data))
		}
		h.unit, fresh = sl.Unit, true
		us.n++
	}
	return h.data[sl.Off : sl.Off+sl.Len], sl, fresh, nil
}

// release unpins the held units and unbinds the set from the file; the
// units' private buffers stay for reuse.
func (us *unitSet) release() {
	for i := range us.held[:us.n] {
		if ent := us.held[i].ent; ent != nil {
			ent.Unpin()
		}
		us.held[i].data, us.held[i].ent = nil, nil
	}
	us.n, us.bf, us.blk = 0, nil, bitmapBlock{}
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
