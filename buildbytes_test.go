package mdhf

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestBuildBytesPinned pins the bytes an on-disk build writes for the
// benchmark's store shape — APB1Scaled(60), seed 1, FMonthGroup with the
// APB-1 indexes on four round-robin disks — in both bitmap formats. The
// bitmaps.dat digests were taken before builders encoded each leaf
// member once through a code table, the fact.dat and meta.dat digests
// when fact pages became column blocks (meta format 3), with the rows
// they decode to unchanged (internal/storage's TestBuildRowsPinned pins
// those). Any later change to how a build computes its bitmaps, fact
// pages or directory must leave them as they are.
// TestCompactByteIdentical pins compaction's rebuilt blocks to a fresh
// build, and so to these bytes.
func TestBuildBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two APB1Scaled(60) stores")
	}
	tab := MustGenerateData(APB1Scaled(60), 1)
	q, err := ParseQuery(tab.Star, "time::month=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []Option
		want map[string]string // file name -> "size:sha256"
	}{
		{"compressed", []Option{WithCompression()}, map[string]string{
			"fact.dat":    "3932160:532e79463cb44d5d40678dc8ce8bca6727eab71c7bb716c768c0572af5204f44",
			"bitmaps.dat": "786432:57b8b8bf1796d340d1b08d7287dd7fe737968952a96d549ceafe19174c5907e7",
			"meta.dat":    "10024:78be7a5e221f1015cab71533f6b00a828e27a860e6a666ab11ae9a955cefa493",
		}},
		{"packed", nil, map[string]string{
			"fact.dat":    "3932160:532e79463cb44d5d40678dc8ce8bca6727eab71c7bb716c768c0572af5204f44",
			"bitmaps.dat": "786432:79fe5bb5541aaf3cf4aecfcb6d4a6cd2d1968c59449ca7a10215a633d7933114",
			"meta.dat":    "10024:78be7a5e221f1015cab71533f6b00a828e27a860e6a666ab11ae9a955cefa493",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := append([]Option{WithOnDisk(dir), WithDisks(4, RoundRobin), WithWorkers(2)}, tc.opts...)
			w, err := Open(context.Background(), Config{Fragmentation: "time::month, product::group", Table: tab}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if _, _, err := w.Query(q).Execute(context.Background()); err != nil {
				t.Fatal(err)
			}
			for name, want := range tc.want {
				raw, err := os.ReadFile(filepath.Join(dir, "epoch-000", name))
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%d:%x", len(raw), sha256.Sum256(raw)); got != want {
					t.Errorf("%s = %s, want %s", name, got, want)
				}
			}
		})
	}
}
