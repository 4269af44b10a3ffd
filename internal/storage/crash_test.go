package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frag"
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

// sameRecord fails unless the replayed record holds exactly the segment.
func sameRecord(t *testing.T, what string, rec DeltaRecord, seg *frag.DeltaSegment) {
	t.Helper()
	if rec.Frag != seg.Frag() || rec.Seq != seg.Seq() || rec.Rows() != seg.Rows() {
		t.Fatalf("%s = frag %d seq %d rows %d, want frag %d seq %d rows %d",
			what, rec.Frag, rec.Seq, rec.Rows(), seg.Frag(), seg.Seq(), seg.Rows())
	}
	for i := 0; i < seg.Rows(); i++ {
		for d := range rec.Leaves {
			if rec.Leaves[d][i] != seg.Leaves(d)[i] {
				t.Fatalf("%s row %d dim %d: leaf %d != %d", what, i, d, rec.Leaves[d][i], seg.Leaves(d)[i])
			}
		}
		if rec.Units[i] != seg.Units()[i] || rec.Dollars[i] != seg.Dollars()[i] || rec.Costs[i] != seg.Costs()[i] {
			t.Fatalf("%s row %d: measures differ", what, i)
		}
	}
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
		sameRecord(t, fmt.Sprintf("record %d", i), rec, segs[i])
	}
}

// journalSegment seals rows rows of fragment id with deterministic
// content under the given sequence number.
func journalSegment(ix *frag.DeltaIndex, star *schema.Star, id int64, seq uint64, rows int) *frag.DeltaSegment {
	sb := ix.NewSegment(id)
	leaves := make([]int32, len(star.Dims))
	for i := 0; i < rows; i++ {
		for d := range leaves {
			leaves[d] = int32((int(seq)*7 + i) % star.Dims[d].LeafCard())
		}
		sb.Add(leaves, int64(i), int64(seq), -int64(i))
	}
	return sb.Seal(seq)
}

// TestJournalReplayResolvesReplaceFlag: a journal written when stores
// re-journaled an extended tail segment whole, with the replace flag,
// replays losslessly — the flagged record takes its fragment's previous
// record's place, and a flagged record without one is kept as it is —
// and the file is kept whole, not mistaken for a tear.
func TestJournalReplayResolvesReplaceFlag(t *testing.T) {
	star := schema.Tiny()
	dir := t.TempDir()
	l, _, err := OpenDeltaLog(dir, star)
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := sealSegments(t, star)
	a, b := journalSegment(ix, star, 0, 1, 3), journalSegment(ix, star, 1, 2, 8)
	a2, c := journalSegment(ix, star, 0, 3, 5), journalSegment(ix, star, 2, 4, 2)
	for _, w := range []struct {
		seg     *frag.DeltaSegment
		replace bool
	}{{a, false}, {b, false}, {a2, true}, {c, true}} {
		if err := l.AppendSegment(w.seg, w.replace); err != nil {
			t.Fatal(err)
		}
	}
	size := l.Stats().Bytes
	_, recs := reopenLog(t, l, dir, star)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want [A' B C]", len(recs))
	}
	for i, want := range []*frag.DeltaSegment{a2, b, c} {
		sameRecord(t, fmt.Sprintf("record %d", i), recs[i], want)
	}
	if fi, err := os.Stat(filepath.Join(dir, deltaFileName)); err != nil || fi.Size() != size {
		t.Fatalf("journal size after replay %d, written %d (%v)", fi.Size(), size, err)
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

// FuzzDeltaLogReplay writes a journal of valid records — some of them
// replace-flagged — followed by arbitrary bytes, and reopens it.
// OpenDeltaLog must neither fail nor panic, must truncate the file to the
// end of its intact prefix, which covers every valid record, and must
// return those records with the replace flags resolved. The arbitrary
// bytes can extend the prefix only with intact records of their own,
// which must then replay whole on their own too.
func FuzzDeltaLogReplay(f *testing.F) {
	star := schema.Tiny()
	spec := frag.MustParse(star, "time::month, product::group")
	ix, err := frag.NewDeltaIndex(spec, frag.APB1Indexes(star))
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: garbage, a record cut short, and a whole record (flagged).
	dir := f.TempDir()
	l, _, err := OpenDeltaLog(dir, star)
	if err != nil {
		f.Fatal(err)
	}
	if err := l.AppendSegment(journalSegment(ix, star, 1, 9, 3), true); err != nil {
		f.Fatal(err)
	}
	l.Close()
	record, err := os.ReadFile(filepath.Join(dir, deltaFileName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0x04, 0x89, 0x05}, []byte{})
	f.Add([]byte{0x00, 0x81, 0x80}, []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
	f.Add([]byte{0x09, 0x8d}, record[:len(record)-5])
	f.Add([]byte{0x01, 0x02}, record)

	f.Fuzz(func(t *testing.T, plan, garbage []byte) {
		if len(plan) > 16 {
			plan = plan[:16]
		}
		dir := t.TempDir()
		l, _, err := OpenDeltaLog(dir, star)
		if err != nil {
			t.Fatal(err)
		}
		// Each plan byte is one record: fragment (low 2 bits), rows (next
		// 3, plus one) and the replace flag (top bit).
		var want []*frag.DeltaSegment
		for k, b := range plan {
			seg := journalSegment(ix, star, int64(b&3), uint64(k+1), 1+int(b>>2&7))
			if err := l.AppendSegment(seg, b&0x80 != 0); err != nil {
				t.Fatal(err)
			}
			at := -1
			for i, w := range want {
				if w.Frag() == seg.Frag() {
					at = i
				}
			}
			if b&0x80 != 0 && at >= 0 {
				want[at] = seg
			} else {
				want = append(want, seg)
			}
		}
		valid := l.Stats().Bytes
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, deltaFileName)
		file, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.Write(garbage); err != nil {
			t.Fatal(err)
		}
		file.Close()

		re, recs, err := OpenDeltaLog(dir, star)
		if err != nil {
			t.Fatalf("reopening %d valid bytes and %d arbitrary ones: %v", valid, len(garbage), err)
		}
		re.Close()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		tail := fi.Size()
		if tail < valid || tail > valid+int64(len(garbage)) {
			t.Fatalf("truncated to %d bytes: %d are valid records, %d more arbitrary", tail, valid, len(garbage))
		}
		if tail == valid {
			if len(recs) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(recs), len(want))
			}
			for i := range want {
				sameRecord(t, fmt.Sprintf("record %d", i), recs[i], want[i])
			}
			return
		}
		// The arbitrary bytes began with intact records: alone, they replay
		// whole.
		alone := t.TempDir()
		if err := os.WriteFile(filepath.Join(alone, deltaFileName), garbage[:tail-valid], 0o644); err != nil {
			t.Fatal(err)
		}
		re, _, err = OpenDeltaLog(alone, star)
		if err != nil {
			t.Fatal(err)
		}
		re.Close()
		if fi, err := os.Stat(filepath.Join(alone, deltaFileName)); err != nil || fi.Size() != tail-valid {
			t.Fatalf("the %d bytes taken as records after the valid ones do not replay whole alone (%v)", tail-valid, err)
		}
	})
}
