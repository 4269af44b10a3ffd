package frag

import (
	"testing"

	"repro/internal/schema"
)

func TestMaxBitmapsAPB1(t *testing.T) {
	s := schema.APB1()
	cfg := APB1Indexes(s)
	// Section 3.2: maximum of 76 bitmaps.
	if got := MaxBitmaps(s, cfg); got != 76 {
		t.Fatalf("MaxBitmaps = %d, want 76", got)
	}
}

func TestSurvivingBitmapsFMonthGroup(t *testing.T) {
	s := schema.APB1()
	cfg := APB1Indexes(s)
	spec := MustParse(s, "time::month, product::group")
	// Section 4.2: "for FMonthGroup at most 32 bitmaps are thus to be
	// maintained" — all 34 TIME bitmaps and the 10 product prefix bits go.
	if got := spec.SurvivingBitmaps(cfg); got != 32 {
		t.Fatalf("SurvivingBitmaps = %d, want 32", got)
	}
}

func TestSurvivingBitmapsOtherSpecs(t *testing.T) {
	s := schema.APB1()
	cfg := APB1Indexes(s)
	cases := []struct {
		text string
		want int
	}{
		// customer::store eliminates the whole 12-bit customer index:
		// 76 - 12 = 64.
		{"customer::store", 64},
		// channel::channel eliminates the 15 channel bitmaps: 61.
		{"channel::channel", 61},
		// time::quarter eliminates quarter+year simple bitmaps (8+2), keeps
		// the 24 month bitmaps: 76 - 10 = 66.
		{"time::quarter", 66},
		// product::code eliminates the full product index: 61.
		{"product::code", 61},
		// All four at the leaves: everything eliminated.
		{"time::month, product::code, customer::store, channel::channel", 0},
	}
	for _, c := range cases {
		spec := MustParse(s, c.text)
		if got := spec.SurvivingBitmaps(cfg); got != c.want {
			t.Errorf("%s: surviving = %d, want %d", c.text, got, c.want)
		}
	}
}

func TestBitmapsReadForPred(t *testing.T) {
	s := schema.APB1()
	cfg := APB1Indexes(s)
	spec := MustParse(s, "time::month, product::group")
	p := s.DimIndex(schema.DimProduct)
	c := s.DimIndex(schema.DimCustomer)
	tm := s.DimIndex(schema.DimTime)
	prod := s.Dim(schema.DimProduct)
	code := prod.LevelIndex(schema.LvlCode)
	class := prod.LevelIndex(schema.LvlClass)
	group := prod.LevelIndex(schema.LvlGroup)
	store := s.Dim(schema.DimCustomer).LevelIndex(schema.LvlStore)
	month := s.Dim(schema.DimTime).LevelIndex(schema.LvlMonth)

	cases := []struct {
		name string
		pred Pred
		want int
	}{
		// 1STORE reads the full 12-bit customer index per fragment
		// (Section 6.2: "12 bitmap fragments for each fact table fragment").
		{"store", Pred{c, store, 0}, 12},
		// A code selection inside a group-fragment reads only the 5 suffix
		// bits (class + code fields).
		{"code", Pred{p, code, 0}, 5},
		// A class selection reads just the 1 class bit beyond the group.
		{"class", Pred{p, class, 0}, 1},
		// Fragmentation attributes need no bitmaps.
		{"group", Pred{p, group, 0}, 0},
		{"month", Pred{tm, month, 0}, 0},
	}
	for _, tc := range cases {
		if got := spec.BitmapsReadForPred(cfg, tc.pred); got != tc.want {
			t.Errorf("%s: bitmaps read = %d, want %d", tc.name, got, tc.want)
		}
	}
	q := Query{Preds: []Pred{{c, store, 0}, {p, code, 0}}}
	if got := spec.BitmapsReadForQuery(cfg, q); got != 17 {
		t.Errorf("query bitmaps read = %d, want 17", got)
	}
}

func TestBitmapsReadUnfragmentedEncoded(t *testing.T) {
	s := schema.APB1()
	cfg := APB1Indexes(s)
	// Fragment only on time; product predicates use the full prefix.
	spec := MustParse(s, "time::month")
	p := s.DimIndex(schema.DimProduct)
	prod := s.Dim(schema.DimProduct)
	group := prod.LevelIndex(schema.LvlGroup)
	code := prod.LevelIndex(schema.LvlCode)
	if got := spec.BitmapsReadForPred(cfg, Pred{p, group, 0}); got != 10 {
		t.Errorf("group prefix read = %d, want 10 (Table 1)", got)
	}
	if got := spec.BitmapsReadForPred(cfg, Pred{p, code, 0}); got != 15 {
		t.Errorf("code prefix read = %d, want 15", got)
	}
}

func TestEnumerateCounts(t *testing.T) {
	s := schema.APB1()
	specs := Enumerate(s)
	// Table 2 "any" column: 12 + 47 + 72 + 36 = 167 options.
	byDims := map[int]int{}
	for _, sp := range specs {
		byDims[sp.Dimensionality()]++
	}
	want := map[int]int{1: 12, 2: 47, 3: 72, 4: 36}
	for d, w := range want {
		if byDims[d] != w {
			t.Errorf("%d-dimensional options = %d, want %d", d, byDims[d], w)
		}
	}
	if len(specs) != 167 {
		t.Errorf("total options = %d, want 167", len(specs))
	}
}

// admitted is the subset of specs passing the thresholds, the filter the
// advisor applies through Admissible.
func admitted(th Thresholds, specs []*Spec, cfg IndexConfig) []*Spec {
	var out []*Spec
	for _, s := range specs {
		if th.Admissible(s, cfg) {
			out = append(out, s)
		}
	}
	return out
}

func TestThresholdsFilter(t *testing.T) {
	s := schema.APB1()
	cfg := APB1Indexes(s)
	specs := Enumerate(s)

	// Threshold (i): minimal bitmap fragment size of 1 page. The paper's
	// Table 2 reports 72; our exact arithmetic yields 74 (the paper's table
	// is internally inconsistent with its own nmax formula — see
	// EXPERIMENTS.md T2).
	t1 := Thresholds{MinBitmapFragPages: 1}
	if got := len(admitted(t1, specs, cfg)); got != 74 {
		t.Errorf("options with >=1 page bitmap fragments = %d, want 74", got)
	}

	// MaxFragments and MaxBitmaps thresholds compose.
	t2 := Thresholds{MaxFragments: 20_000, MaxBitmaps: 40}
	for _, sp := range admitted(t2, specs, cfg) {
		if sp.NumFragments() > 20_000 {
			t.Errorf("%s exceeds MaxFragments", sp)
		}
		if sp.SurvivingBitmaps(cfg) > 40 {
			t.Errorf("%s exceeds MaxBitmaps", sp)
		}
	}

	// MinFragments: at least one fragment per disk (d=100).
	t3 := Thresholds{MinFragments: 100}
	for _, sp := range admitted(t3, specs, cfg) {
		if sp.NumFragments() < 100 {
			t.Errorf("%s below MinFragments", sp)
		}
	}
}

func TestIOClassOf(t *testing.T) {
	s := schema.APB1()
	spec := MustParse(s, "time::month, product::group")
	p := s.DimIndex(schema.DimProduct)
	c := s.DimIndex(schema.DimCustomer)
	tm := s.DimIndex(schema.DimTime)
	prod := s.Dim(schema.DimProduct)
	timeD := s.Dim(schema.DimTime)
	group := prod.LevelIndex(schema.LvlGroup)
	family := prod.LevelIndex(schema.LvlFamily)
	code := prod.LevelIndex(schema.LvlCode)
	month := timeD.LevelIndex(schema.LvlMonth)
	quarter := timeD.LevelIndex(schema.LvlQuarter)
	store := s.Dim(schema.DimCustomer).LevelIndex(schema.LvlStore)

	cases := []struct {
		name string
		q    Query
		want IOClass
	}{
		{"1MONTH1GROUP", Query{Preds: []Pred{{tm, month, 0}, {p, group, 0}}}, IOC1Opt},
		{"1MONTH", Query{Preds: []Pred{{tm, month, 0}}}, IOC1},
		{"1GROUP1QUARTER", Query{Preds: []Pred{{p, group, 0}, {tm, quarter, 0}}}, IOC1},
		{"1FAMILY1MONTH", Query{Preds: []Pred{{p, family, 0}, {tm, month, 0}}}, IOC1},
		{"1CODE1QUARTER", Query{Preds: []Pred{{p, code, 0}, {tm, quarter, 0}}}, IOC2},
		{"1CODE", Query{Preds: []Pred{{p, code, 0}}}, IOC2},
		{"1GROUP1STORE", Query{Preds: []Pred{{p, group, 0}, {c, store, 0}}}, IOC2},
		{"1STORE", Query{Preds: []Pred{{c, store, 0}}}, IOC2NoSupp},
		{"empty", Query{}, IOC2NoSupp},
	}
	for _, tc := range cases {
		if got := spec.IOClassOf(tc.q); got != tc.want {
			t.Errorf("%s: IOClass = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Fopt for 1STORE: IOC1-opt (Section 4.5).
	fopt := MustParse(s, "customer::store")
	if got := fopt.IOClassOf(Query{Preds: []Pred{{c, store, 0}}}); got != IOC1Opt {
		t.Errorf("Fopt 1STORE: IOClass = %v, want IOC1-opt", got)
	}
}

func TestIOClassStringAndQueryClassString(t *testing.T) {
	for c, want := range map[IOClass]string{
		IOC1Opt: "IOC1-opt", IOC1: "IOC1", IOC2: "IOC2", IOC2NoSupp: "IOC2-nosupp",
	} {
		if c.String() != want {
			t.Errorf("IOClass(%d).String() = %q", c, c.String())
		}
	}
	for c, want := range map[QueryClass]string{
		Q1: "Q1", Q2: "Q2", Q3: "Q3", Q4: "Q4", Unsupported: "unsupported",
	} {
		if c.String() != want {
			t.Errorf("QueryClass(%d).String() = %q", c, c.String())
		}
	}
}
