package storage

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/schema"
)

// reopenLog closes l and reopens the journal in dir, returning the
// replayed records — the crash-recovery round trip.
func reopenLog(t *testing.T, l *DeltaLog, dir string, star *schema.Star) (*DeltaLog, []DeltaRecord) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, recs, err := OpenDeltaLog(dir, star)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	return re, recs
}

func TestJournalReplayRecoversAckedSegments(t *testing.T) {
	star := schema.Tiny()
	dir := t.TempDir()
	l, _, err := OpenDeltaLog(dir, star)
	if err != nil {
		t.Fatal(err)
	}
	_, segs := sealSegments(t, star, 4, 17, 1)
	for _, seg := range segs {
		if err := l.AppendSegment(seg, false); err != nil {
			t.Fatal(err)
		}
	}
	// "Crash": no Reset, no graceful teardown beyond releasing the fd.
	_, recs := reopenLog(t, l, dir, star)
	if len(recs) != len(segs) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(segs))
	}
	for i, rec := range recs {
		seg := segs[i]
		if rec.Frag != seg.Frag() || rec.Seq != seg.Seq() || rec.Rows() != seg.Rows() || rec.Replace {
			t.Fatalf("record %d = frag %d seq %d rows %d replace %v, want frag %d seq %d rows %d replace false",
				i, rec.Frag, rec.Seq, rec.Rows(), rec.Replace, seg.Frag(), seg.Seq(), seg.Rows())
		}
		for i2 := 0; i2 < seg.Rows(); i2++ {
			for d := range rec.Leaves {
				if rec.Leaves[d][i2] != seg.Leaves(d)[i2] {
					t.Fatalf("record %d row %d dim %d: leaf %d != %d", i, i2, d, rec.Leaves[d][i2], seg.Leaves(d)[i2])
				}
			}
			if rec.Units[i2] != seg.Units()[i2] || rec.Dollars[i2] != seg.Dollars()[i2] || rec.Costs[i2] != seg.Costs()[i2] {
				t.Fatalf("record %d row %d: measures differ", i, i2)
			}
		}
	}
}

func TestJournalReplayPreservesReplaceFlag(t *testing.T) {
	star := schema.Tiny()
	dir := t.TempDir()
	l, _, err := OpenDeltaLog(dir, star)
	if err != nil {
		t.Fatal(err)
	}
	_, segs := sealSegments(t, star, 3, 8)
	if err := l.AppendSegment(segs[0], false); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSegment(segs[1], true); err != nil {
		t.Fatal(err)
	}
	_, recs := reopenLog(t, l, dir, star)
	if len(recs) != 2 || recs[0].Replace || !recs[1].Replace {
		t.Fatalf("replace flags = %v, want [false true]", []bool{recs[0].Replace, recs[1].Replace})
	}
}

func TestJournalTruncatesTornTail(t *testing.T) {
	star := schema.Tiny()
	for name, tear := range map[string]func(t *testing.T, path string){
		// A record cut short mid-write: drop the last 5 bytes.
		"short-payload": func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		},
		// A bit flip inside the last record's payload.
		"corrupt-payload": func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			fi, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			b := []byte{0}
			if _, err := f.ReadAt(b, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x40
			if _, err := f.WriteAt(b, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		},
		// Garbage appended after the last full record (a header that never
		// finished writing).
		"garbage-tail": func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := OpenDeltaLog(dir, star)
			if err != nil {
				t.Fatal(err)
			}
			_, segs := sealSegments(t, star, 6, 9, 2)
			var intactBytes int64
			for i, seg := range segs {
				if err := l.AppendSegment(seg, false); err != nil {
					t.Fatal(err)
				}
				if i < len(segs)-1 {
					intactBytes += int64(recHeaderSize + seg.Rows()*TupleSize(star))
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, deltaFileName)
			tear(t, path)

			re, recs, err := OpenDeltaLog(dir, star)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			// Only the intact prefix survives; for the garbage-tail case all
			// records are intact, the garbage alone is dropped.
			wantRecs := len(segs) - 1
			if name == "garbage-tail" {
				wantRecs = len(segs)
				intactBytes += int64(recHeaderSize + segs[len(segs)-1].Rows()*TupleSize(star))
			}
			if len(recs) != wantRecs {
				t.Fatalf("recovered %d records, want %d", len(recs), wantRecs)
			}
			// The tear is physically truncated away, so the next append
			// lands on a clean tail.
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != intactBytes {
				t.Fatalf("journal size after recovery = %d, want %d", fi.Size(), intactBytes)
			}
			if err := re.AppendSegment(segs[len(segs)-1], false); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2, recs2, err := OpenDeltaLog(dir, star)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			if len(recs2) != wantRecs+1 {
				t.Fatalf("after re-append: recovered %d records, want %d", len(recs2), wantRecs+1)
			}
		})
	}
}

// TestJournalRollbackDropsRecordsPastTheMark: rolling back to an earlier
// Stats truncates the records journaled since, restores the counters, and the
// next record lands where the dropped ones began — replay sees the
// records before the mark and the one after the rollback, nothing else.
func TestJournalRollbackDropsRecordsPastTheMark(t *testing.T) {
	star := schema.Tiny()
	dir := t.TempDir()
	l, _, err := OpenDeltaLog(dir, star)
	if err != nil {
		t.Fatal(err)
	}
	_, segs := sealSegments(t, star, 4, 17, 1, 9)
	if err := l.AppendSegment(segs[0], false); err != nil {
		t.Fatal(err)
	}
	kept := l.Stats()
	for _, seg := range segs[1:3] {
		if err := l.AppendSegment(seg, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rollback(kept); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st != kept {
		t.Fatalf("stats after rollback = %+v, at the mark %+v", st, kept)
	}
	if fi, err := os.Stat(filepath.Join(dir, deltaFileName)); err != nil || fi.Size() != kept.Bytes {
		t.Fatalf("journal size after rollback = %d, want %d (%v)", fi.Size(), kept.Bytes, err)
	}
	if err := l.AppendSegment(segs[3], false); err != nil {
		t.Fatal(err)
	}
	_, recs := reopenLog(t, l, dir, star)
	if len(recs) != 2 || recs[0].Seq != segs[0].Seq() || recs[1].Seq != segs[3].Seq() || recs[1].Rows() != segs[3].Rows() {
		t.Fatalf("replay after rollback recovered %d records: %+v", len(recs), recs)
	}
}
