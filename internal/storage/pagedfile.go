package storage

import (
	"context"
	"fmt"
	"os"

	"repro/internal/alloc"
)

// pagedFile is what the fact store and the bitmap file share: a file of
// fixed-size pages, a CRC32C per page, and the disk set every physical
// read of it queues on. The paper charges a fact granule and a bitmap
// unit alike — a run of pages read from the one disk, of D, that the
// placement assigns (Sections 4.3 and 4.6) — and so a run is read,
// pooled and appended here, once for both files; a caller only picks the
// disk. Every paged file has a disk set: a store that is not declustered
// reads through a one-disk set, and Decluster is the one way to change
// it.
type pagedFile struct {
	file *os.File
	// name is the file's FaultError.File: "fact" or "bitmaps".
	name     string
	pageSize int
	// sums holds one CRC32C per page, indexed by absolute page number and
	// verified on every physical read.
	sums      []uint32
	disks     *DiskSet
	placement alloc.Placement
	// pool, when non-nil, caches page runs under poolEpoch (AttachPool).
	pool      *BufPool
	poolEpoch int64
}

// oneDisk returns the disk set and placement of a file that is not
// declustered: one disk, which every read queues on.
func oneDisk() (*DiskSet, alloc.Placement) { return NewDiskSet(1), alloc.Placement{Disks: 1} }

// AttachPool routes the file's reads through a shared buffer pool,
// keying its entries under the given serving epoch. Must be called
// before queries run (backend assembly time); a nil pool detaches.
func (f *pagedFile) AttachPool(p *BufPool, epoch int64) {
	f.pool, f.poolEpoch = p, epoch
}

// Close releases the underlying file.
func (f *pagedFile) Close() error { return f.file.Close() }

// read is one physical read of the pages starting at absPage into dst:
// it queues on disk `disk` of the set, runs under the set's retry policy
// (a cancelled ctx stops it before it queues) and verifies every page
// against the checksum table. A failure is a *FaultError locating the
// disk, the file, fragment frag and the byte offset.
func (f *pagedFile) read(ctx context.Context, dst []byte, absPage int64, disk int, frag int64) error {
	off := absPage * int64(f.pageSize)
	read := func() error {
		if _, err := f.file.ReadAt(dst, off); err != nil {
			return fmt.Errorf("storage: reading %d %s pages of fragment %d at offset %d: %w", len(dst)/f.pageSize, f.name, frag, off, err)
		}
		return nil
	}
	verify := func() error { return f.verify(dst, absPage, frag) }
	corrupt := func() { corruptPages(dst, f.pageSize) }
	return retryRead(ctx, f.disks, disk, len(dst)/f.pageSize, faultSite{file: f.name, frag: frag, off: off}, read, corrupt, verify)
}

// verify checks each page of buf, read from absPage on, against the
// checksum table.
func (f *pagedFile) verify(buf []byte, absPage, frag int64) error {
	for i := 0; i*f.pageSize < len(buf); i++ {
		page := buf[i*f.pageSize : (i+1)*f.pageSize]
		want := f.sums[absPage+int64(i)]
		if got := pageCRC(page); got != want {
			return &FaultError{
				File: f.name, Frag: frag, Offset: (absPage + int64(i)) * int64(f.pageSize), Kind: FaultChecksum,
				Err: fmt.Errorf("page %d crc32c %08x != stored %08x", absPage+int64(i), got, want),
			}
		}
	}
	return nil
}

// readPooled is read through the buffer pool, the run keyed by key (its
// Epoch is the file's; Len is the run's page count). With no pool
// attached the pages are read into buf, grown, and ent is nil. With a
// pool, a hit returns the resident pages with no physical I/O — the disk
// notes the read it was spared — and a miss reads into a fresh buffer and
// offers it to the pool. When ent is non-nil the data belongs to the
// pool and is pinned: the caller must ent.Unpin() once done with it and
// must not retain or reuse it. hit reports whether the pool served the
// read.
func (f *pagedFile) readPooled(ctx context.Context, buf []byte, key PoolKey, absPage int64, disk int) (data []byte, ent *PoolEntry, hit bool, err error) {
	n := int(key.Len) * f.pageSize
	if f.pool == nil {
		buf = sized(buf, n)
		if err := f.read(ctx, buf, absPage, disk, key.Frag); err != nil {
			return nil, nil, false, err
		}
		return buf, nil, false, nil
	}
	key.Epoch = f.poolEpoch
	if e := f.pool.Get(key); e != nil {
		f.disks.notePoolHit(disk, int(key.Len))
		return e.Data(), e, true, nil
	}
	// Miss: read into a fresh buffer the pool can take ownership of (the
	// caller's scratch would be overwritten by its next read).
	data = make([]byte, n)
	if err := f.read(ctx, data, absPage, disk, key.Frag); err != nil {
		return nil, nil, false, err
	}
	if e := f.pool.Add(key, data); e != nil {
		return e.Data(), e, false, nil
	}
	return data, nil, false, nil // pool full of pinned entries: serve privately
}

// appendPages is the one place pages reach a paged file: whole pages are
// appended with their checksums, and the absolute page number of the
// first is returned.
func (f *pagedFile) appendPages(pages []byte, sums []uint32) (int64, error) {
	first := int64(len(f.sums))
	if _, err := f.file.Write(pages); err != nil {
		return first, fmt.Errorf("storage: writing %s page %d: %w", f.name, first, err)
	}
	f.sums = append(f.sums, sums...)
	return first, nil
}
