package experiments

import (
	"bytes"
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// The paper's numbers live in one CSV golden file per experiment under
// testdata/repro, written with seed 1. The test that simulates an
// experiment compares its points with the file byte for byte, beside the
// shape checks that say why the numbers match the paper. After a change
// that moves a point on purpose, rewrite the files with
//
//	go test ./internal/experiments -update
//
// and say in the change log which points moved and why.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/repro")

// checkGolden compares rows, written as CSV, with testdata/repro/name, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, rows [][]string) {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "repro", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e []byte
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if !bytes.Equal(g, e) {
			t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, g, e)
		}
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func itoa[T int | int64](v T) string { return strconv.FormatInt(int64(v), 10) }

// figureRows is one row per point: the header, then every series in order.
func figureRows(fig Figure) [][]string {
	rows := [][]string{{"series", "x", "response_s", "speedup", "subqueries", "disk_ops", "events"}}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			rows = append(rows, []string{s.Label, ftoa(p.X), ftoa(p.ResponseTime), ftoa(p.Speedup),
				itoa(p.Subqueries), itoa(p.DiskOps), itoa(p.Events)})
		}
	}
	return rows
}

// point returns the point of the labelled series at x.
func point(t *testing.T, fig Figure, label string, x float64) Point {
	t.Helper()
	for _, s := range fig.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.X == x {
				return p
			}
		}
	}
	t.Fatalf("%s: no point %q at x = %g", fig.Name, label, x)
	return Point{}
}

func table1Rows(rows []Table1Row) [][]string {
	out := [][]string{{"level", "total_elements", "within_parent", "bits", "paper_bits"}}
	for _, r := range rows {
		out = append(out, []string{r.Level, itoa(r.TotalElements), itoa(r.WithinParent), itoa(r.Bits), itoa(r.PaperBits)})
	}
	return out
}

func table2Rows(cells []Table2Cell) [][]string {
	out := [][]string{{"dims", "min_pages", "count", "paper"}}
	for _, c := range cells {
		out = append(out, []string{itoa(c.Dims), itoa(c.MinPages), itoa(c.Count), itoa(c.Paper)})
	}
	return out
}

func table3Rows(cols [2]Table3Col) [][]string {
	out := [][]string{{"label", "fragmentation", "fragments", "fact_ios", "fact_pages", "bitmap_ios", "bitmap_pages",
		"total_mb", "paper_fragments", "paper_fact_io", "paper_bitmap_io", "paper_total_mb"}}
	for _, c := range cols {
		out = append(out, []string{c.Label, c.Fragmentation, itoa(c.Cost.Fragments), itoa(c.Cost.FactIOs),
			itoa(c.Cost.FactPages), itoa(c.Cost.BitmapIOs), itoa(c.Cost.BitmapPages), ftoa(c.Cost.TotalMB()),
			itoa(c.PaperFragments), itoa(c.PaperFactIO), itoa(c.PaperBitmapIO), ftoa(c.PaperTotalMB)})
	}
	return out
}

func table6Rows(rows []Table6Row) [][]string {
	out := [][]string{{"fragmentation", "fragments", "bitmap_frag_pages", "bitmap_frag_pages_stored",
		"paper_fragments", "paper_bitmap_frag_pages"}}
	for _, r := range rows {
		out = append(out, []string{r.Fragmentation, itoa(r.Fragments), ftoa(r.BitmapFragPages),
			itoa(r.BitmapFragStored), itoa(r.PaperFragments), ftoa(r.PaperBitmapFragPages)})
	}
	return out
}
