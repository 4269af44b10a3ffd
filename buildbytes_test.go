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
// digests were taken before builders encoded each leaf member once
// through a code table; any later change to how a build computes its
// bitmaps, fact pages or directory must leave them as they are.
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
			"fact.dat":    "3932160:c6fcc411c358e2097c659416e544e95b1cd614ad6b7d84fb20248bda38a13207",
			"bitmaps.dat": "786432:57b8b8bf1796d340d1b08d7287dd7fe737968952a96d549ceafe19174c5907e7",
			"meta.dat":    "10024:1a7aede445b7bda3cf88df6adce5987f19069512147c30d50e25c9d8adb7e370",
		}},
		{"packed", nil, map[string]string{
			"bitmaps.dat": "786432:79fe5bb5541aaf3cf4aecfcb6d4a6cd2d1968c59449ca7a10215a633d7933114",
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
