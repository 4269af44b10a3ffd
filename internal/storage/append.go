package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/alloc"
	"repro/internal/frag"
	"repro/internal/schema"
)

const (
	deltaFileName = "delta.dat"
	// recMagic opens every journal record ("MDLG").
	recMagic = 0x4d444c47
	// recHeaderSize is the fixed record header: magic u32, rows u32,
	// seq u64, frag i64, payloadLen u32, crc u32 (CRC32C over the first 28
	// header bytes and the payload), little endian.
	recHeaderSize = 32
	// recFlagReplace, set in the rows field's top bit, marks a record that
	// supersedes its fragment's previous record. Stores no longer write it
	// (a sealed segment is never re-journaled), but journals written when
	// a fragment's tail segment was extended and re-journaled whole hold
	// it, and replay resolves it so they recover without double-counting.
	recFlagReplace = 1 << 31
)

// DeltaLog persists sealed delta segments as a crash-recoverable
// journal: every appended fact row is written inside a checksummed,
// length-prefixed record, so an Append that returned nil survives a
// crash — OpenDeltaLog replays intact records and truncates a torn tail
// (a record cut short by the crash, detected by its length prefix or
// CRC32C). Rows are encoded in the store's own tuple format (uint16 keys
// + three uint32 measures). Every write is routed through the queue of
// the segment's placement-mapped disk — one disk of its own until Attach
// hands it the store's set — so appends contend with query reads for the
// same virtual disks, as real ingestion would.
//
// The log is an arrival-ordered journal, not a random-access store:
// queries serve delta rows from the in-memory segments, and compaction
// folds the logged rows into a fresh declustered store then Resets the
// log. Reset truncates; Stats reports what is currently logged.
type DeltaLog struct {
	star      *schema.Star
	pageSize  int
	tupleSize int

	mu        sync.Mutex
	file      *os.File
	buf       []byte // the record being written, reused
	byteOff   int64
	segs      int64
	rows      int64
	disks     *DiskSet
	placement alloc.Placement
}

// DeltaLogStats reports what the log currently holds.
type DeltaLogStats struct {
	Segments int64
	Rows     int64
	Bytes    int64
}

// DeltaRecord is one replayed journal record: the sealed segment's
// fragment, sequence number and decoded rows, in append order. Every
// column is exactly Rows() long.
type DeltaRecord struct {
	Frag int64
	Seq  uint64
	// Leaves[d][i] is row i's leaf member on dimension d.
	Leaves  [][]int32
	Units   []int64
	Dollars []int64
	Costs   []int64
}

// Rows returns the record's row count.
func (r *DeltaRecord) Rows() int { return len(r.Units) }

// OpenDeltaLog opens (creating if needed) the delta journal in dir and
// replays it: every intact record is decoded and returned in append
// order — a replace-flagged record in place of its fragment's previous
// record, or appended when there is none — and a torn tail — a record
// cut short by a crash mid-write, or one whose checksum does not match —
// is truncated away. Records after a torn record are dropped too: the
// journal is strictly arrival-ordered, so nothing after the first tear
// can be trusted to have been acked.
func OpenDeltaLog(dir string, star *schema.Star) (*DeltaLog, []DeltaRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, deltaFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	l := &DeltaLog{
		star:      star,
		pageSize:  star.PageSize,
		tupleSize: TupleSize(star),
		file:      f,
	}
	l.disks, l.placement = oneDisk()
	recs, tail, err := l.replay()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(tail); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("storage: truncating delta journal torn tail at %d: %w", tail, err)
	}
	l.byteOff = tail
	l.segs = int64(len(recs))
	for i := range recs {
		l.rows += int64(recs[i].Rows())
	}
	return l, recs, nil
}

// replay scans the journal from the start, decoding intact records and
// returning the byte offset of the first tear (== file size when clean).
func (l *DeltaLog) replay() ([]DeltaRecord, int64, error) {
	size, err := l.file.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, err
	}
	var recs []DeltaRecord
	last := make(map[int64]int) // each fragment's latest record in recs
	var off int64
	hdr := make([]byte, recHeaderSize)
	var payload []byte
	for off+recHeaderSize <= size {
		if _, err := l.file.ReadAt(hdr, off); err != nil {
			return nil, 0, fmt.Errorf("storage: reading delta journal header at %d: %w", off, err)
		}
		if binary.LittleEndian.Uint32(hdr) != recMagic {
			break // tear: garbage where a record should start
		}
		rowsField := binary.LittleEndian.Uint32(hdr[4:])
		replace := rowsField&recFlagReplace != 0
		rows := int(rowsField &^ recFlagReplace)
		seq := binary.LittleEndian.Uint64(hdr[8:])
		fragID := int64(binary.LittleEndian.Uint64(hdr[16:]))
		plen := int(binary.LittleEndian.Uint32(hdr[24:]))
		want := binary.LittleEndian.Uint32(hdr[28:])
		if plen != rows*l.tupleSize || off+recHeaderSize+int64(plen) > size {
			break // tear: impossible length or payload cut short
		}
		if cap(payload) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := l.file.ReadAt(payload, off+recHeaderSize); err != nil {
			return nil, 0, fmt.Errorf("storage: reading delta journal payload at %d: %w", off, err)
		}
		crc := crc32.Update(crc32.Checksum(hdr[:recHeaderSize-4], castagnoli), castagnoli, payload)
		if crc != want {
			break // tear: payload or header corrupted mid-write
		}
		off += recHeaderSize + int64(plen)
		rec := l.decodeRecord(fragID, seq, rows, payload)
		if i, ok := last[fragID]; ok && replace {
			recs[i] = rec
			continue
		}
		last[fragID] = len(recs)
		recs = append(recs, rec)
	}
	return recs, off, nil
}

// decodeRecord decodes one record's rows out of its payload.
func (l *DeltaLog) decodeRecord(fragID int64, seq uint64, rows int, payload []byte) DeltaRecord {
	ndims := len(l.star.Dims)
	rec := DeltaRecord{
		Frag:    fragID,
		Seq:     seq,
		Leaves:  make([][]int32, ndims),
		Units:   make([]int64, rows),
		Dollars: make([]int64, rows),
		Costs:   make([]int64, rows),
	}
	for d := range rec.Leaves {
		rec.Leaves[d] = make([]int32, rows)
	}
	for i := 0; i < rows; i++ {
		off := i * l.tupleSize
		for d := 0; d < ndims; d++ {
			rec.Leaves[d][i] = int32(binary.LittleEndian.Uint16(payload[off:]))
			off += 2
		}
		rec.Units[i] = int64(int32(binary.LittleEndian.Uint32(payload[off:])))
		rec.Dollars[i] = int64(int32(binary.LittleEndian.Uint32(payload[off+4:])))
		rec.Costs[i] = int64(int32(binary.LittleEndian.Uint32(payload[off+8:])))
	}
	return rec
}

// Attach routes subsequent segment writes through the disk set's
// serialized per-disk queues (each segment to its fragment's fact disk).
func (l *DeltaLog) Attach(ds *DiskSet, p alloc.Placement) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.disks, l.placement = ds, p
}

// AppendSegment journals one sealed segment as a checksummed record at
// the log's tail. When AppendSegment returns nil the record is fully
// written: a crash at any later point leaves it recoverable by replay.
// replaceTail writes the replace flag, which makes replay substitute the
// record for its fragment's previous one; a store always passes false,
// since it never journals a segment twice.
func (l *DeltaLog) AppendSegment(seg *frag.DeltaSegment, replaceTail bool) error {
	rows := seg.Rows()
	plen := rows * l.tupleSize
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = sized(l.buf, recHeaderSize+plen) // every byte is overwritten
	buf := l.buf
	units, dollars, costs := seg.Units(), seg.Dollars(), seg.Costs()
	ndims := len(l.star.Dims)
	for i := 0; i < rows; i++ {
		off := recHeaderSize + i*l.tupleSize
		for d := 0; d < ndims; d++ {
			binary.LittleEndian.PutUint16(buf[off:], uint16(seg.Leaves(d)[i]))
			off += 2
		}
		binary.LittleEndian.PutUint32(buf[off:], uint32(units[i]))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(dollars[i]))
		binary.LittleEndian.PutUint32(buf[off+8:], uint32(costs[i]))
	}
	binary.LittleEndian.PutUint32(buf, recMagic)
	rowsField := uint32(rows)
	if replaceTail {
		rowsField |= recFlagReplace
	}
	binary.LittleEndian.PutUint32(buf[4:], rowsField)
	binary.LittleEndian.PutUint64(buf[8:], seg.Seq())
	binary.LittleEndian.PutUint64(buf[16:], uint64(seg.Frag()))
	binary.LittleEndian.PutUint32(buf[24:], uint32(plen))
	crc := crc32.Checksum(buf[:recHeaderSize-4], castagnoli)
	crc = crc32.Update(crc, castagnoli, buf[recHeaderSize:])
	binary.LittleEndian.PutUint32(buf[28:], crc)

	pages := (len(buf) + l.pageSize - 1) / l.pageSize
	write := func() error {
		if _, err := l.file.WriteAt(buf, l.byteOff); err != nil {
			return fmt.Errorf("storage: journaling segment seq %d of fragment %d at offset %d: %w",
				seg.Seq(), seg.Frag(), l.byteOff, err)
		}
		return nil
	}
	disk := l.placement.FactDisk(seg.Frag())
	if err := l.disks.do(disk, pages, write); err != nil {
		var fe *FaultError
		if errors.As(err, &fe) { // the disk refused the write
			return faultSite{file: "delta", frag: seg.Frag(), off: l.byteOff}.wrap(disk, fe.Kind, err)
		}
		return err
	}
	l.byteOff += int64(len(buf))
	l.segs++
	l.rows += int64(rows)
	return nil
}

// Rollback truncates the journal back to what it held at an earlier
// Stats, dropping every record appended since: the records of a batch
// whose later segment failed to journal must not survive, or replay after
// a restart would resurrect rows of a batch the caller was told failed.
// The caller serialises it with AppendSegment and Reset (the store's
// append lock).
func (l *DeltaLog) Rollback(to DeltaLogStats) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.file.Truncate(to.Bytes); err != nil {
		return fmt.Errorf("storage: rolling the delta journal back to offset %d: %w", to.Bytes, err)
	}
	l.byteOff, l.segs, l.rows = to.Bytes, to.Segments, to.Rows
	return nil
}

// Reset truncates the journal after compaction folded its rows into the
// base store, then re-journals the still-live segments (those sealed
// after the compaction boundary).
func (l *DeltaLog) Reset(live []*frag.DeltaSegment) error {
	l.mu.Lock()
	if err := l.file.Truncate(0); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("storage: truncating delta journal: %w", err)
	}
	l.byteOff, l.segs, l.rows = 0, 0, 0
	l.mu.Unlock()
	for _, seg := range live {
		if err := l.AppendSegment(seg, false); err != nil {
			return err
		}
	}
	return nil
}

// Stats snapshots the journal's content counters.
func (l *DeltaLog) Stats() DeltaLogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return DeltaLogStats{Segments: l.segs, Rows: l.rows, Bytes: l.byteOff}
}

// Close releases the journal file.
func (l *DeltaLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.file.Close()
}
