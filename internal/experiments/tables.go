// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables 1-6, Figures 3-6) from the library's modules, with the
// paper's published values attached for comparison. It is the shared
// backend of the cmd tools and the examples; its tests record every
// point, paper values beside measured, in testdata/repro.
package experiments

import (
	"repro/internal/bitmap"
	"repro/internal/cost"
	"repro/internal/frag"
	"repro/internal/schema"
	"repro/internal/workload"
)

// Table1Row is one hierarchy level of the PRODUCT dimension in the encoded
// bitmap join index (Table 1).
type Table1Row struct {
	Level         string
	TotalElements int
	WithinParent  int
	Bits          int
	PaperBits     int
}

// Table1 reproduces Table 1: the hierarchical encoding of the APB-1
// PRODUCT dimension (3+2+3+2+1+4 = 15 bits, pattern dddllfffggcoooo).
func Table1() (rows []Table1Row, pattern string) {
	s := schema.APB1()
	p := s.Dim(schema.DimProduct)
	layout := bitmap.NewLayout(p, nil)
	paperBits := []int{3, 2, 3, 2, 1, 4}
	for i, l := range p.Levels {
		within := l.Card
		if i > 0 {
			within = p.FanOut(i - 1)
		}
		rows = append(rows, Table1Row{
			Level:         l.Name,
			TotalElements: l.Card,
			WithinParent:  within,
			Bits:          layout.FieldBits(i),
			PaperBits:     paperBits[i],
		})
	}
	return rows, layout.String()
}

// Table2Cell is one cell of Table 2: the number of fragmentation options of
// a given dimensionality whose bitmap fragments have at least MinPages
// pages (MinPages 0 = "any").
type Table2Cell struct {
	Dims     int
	MinPages int
	Count    int
	Paper    int
}

// paperTable2 holds the published Table 2 ([dims-1][minPages index]).
var paperTable2 = map[int][4]int{
	1: {12, 12, 12, 11},
	2: {47, 37, 31, 27},
	3: {72, 22, 13, 9},
	4: {36, 1, 0, 0},
}

// Table2 reproduces Table 2 on the APB-1 schema. Deviations from the
// published counts stem from the paper's unstated retailer cardinality and
// its internally inconsistent rounding: 11 of 16 cells match, the other
// five are off by at most 2 (testdata/repro/table2.csv).
func Table2() []Table2Cell {
	s := schema.APB1()
	specs := frag.Enumerate(s)
	minPages := []int{0, 1, 4, 8}
	var out []Table2Cell
	for dims := 1; dims <= 4; dims++ {
		for mi, mp := range minPages {
			cell := Table2Cell{Dims: dims, MinPages: mp, Paper: paperTable2[dims][mi]}
			for _, sp := range specs {
				if sp.Dimensionality() != dims {
					continue
				}
				if mp == 0 || sp.BitmapFragmentPages() >= float64(mp) {
					cell.Count++
				}
			}
			out = append(out, cell)
		}
	}
	return out
}

// Table3Col is one column of Table 3: the I/O characteristics of the
// 1STORE query under one fragmentation.
type Table3Col struct {
	Label          string
	Fragmentation  string
	Cost           cost.QueryCost
	PaperFragments int64
	PaperFactIO    int64
	PaperBitmapIO  int64
	PaperTotalMB   float64
}

// Table3 reproduces Table 3: 1STORE under Fopt = {customer::store} versus
// Fnosupp = FMonthGroup.
func Table3() [2]Table3Col {
	s := schema.APB1()
	cfg := frag.APB1Indexes(s)
	g := workload.NewGenerator(s, 1)
	q, err := g.Next(workload.OneStore)
	if err != nil {
		panic(err)
	}
	params := cost.DefaultParams()

	fopt := frag.MustParse(s, "customer::store")
	fns := frag.MustParse(s, "time::month, product::group")
	return [2]Table3Col{
		{
			Label:          "Fopt",
			Fragmentation:  fopt.String(),
			Cost:           cost.Estimate(fopt, cfg, q, params),
			PaperFragments: 1,
			PaperFactIO:    795,
			PaperBitmapIO:  0,
			PaperTotalMB:   25,
		},
		{
			Label:          "Fnosupp",
			Fragmentation:  fns.String(),
			Cost:           cost.Estimate(fns, cfg, q, params),
			PaperFragments: 11_520,
			PaperFactIO:    5_189_760,
			PaperBitmapIO:  691_200,
			PaperTotalMB:   31_075,
		},
	}
}

// Table6Row is one fragmentation of the experiment in Section 6.3.
type Table6Row struct {
	Fragmentation        string
	Fragments            int64
	BitmapFragPages      float64
	BitmapFragStored     int64
	PaperFragments       int64
	PaperBitmapFragPages float64
}

// Table6 reproduces Table 6: fragmentation parameters for experiment 3.
func Table6() []Table6Row {
	s := schema.APB1()
	rows := []struct {
		text       string
		pFragments int64
		pPages     float64
	}{
		{"time::month, product::group", 11_520, 4.9},
		{"time::month, product::class", 23_040, 2.5},
		{"time::month, product::code", 345_600, 0.16},
	}
	var out []Table6Row
	for _, r := range rows {
		sp := frag.MustParse(s, r.text)
		out = append(out, Table6Row{
			Fragmentation:        sp.String(),
			Fragments:            sp.NumFragments(),
			BitmapFragPages:      sp.BitmapFragmentPages(),
			BitmapFragStored:     cost.BitmapFragPagesStored(sp),
			PaperFragments:       r.pFragments,
			PaperBitmapFragPages: r.pPages,
		})
	}
	return out
}

// BitmapInventory summarises the Section 3.2 / 4.2 bitmap counts: the
// maximum of 76 bitmaps and the 32 surviving under FMonthGroup.
type BitmapInventory struct {
	MaxBitmaps                int // paper: 76
	SurvivingUnderFMonthGroup int // paper: 32
}

// Bitmaps reproduces the bitmap count analysis.
func Bitmaps() BitmapInventory {
	s := schema.APB1()
	cfg := frag.APB1Indexes(s)
	spec := frag.MustParse(s, "time::month, product::group")
	return BitmapInventory{
		MaxBitmaps:                frag.MaxBitmaps(s, cfg),
		SurvivingUnderFMonthGroup: spec.SurvivingBitmaps(cfg),
	}
}
