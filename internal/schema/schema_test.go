package schema

import (
	"testing"
	"testing/quick"
)

func TestAPB1Cardinalities(t *testing.T) {
	s := APB1()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]int{
		DimProduct: {
			LvlDivision: 8, LvlLine: 24, LvlFamily: 120,
			LvlGroup: 480, LvlClass: 960, LvlCode: 14400,
		},
		DimCustomer: {LvlRetailer: 144, LvlStore: 1440},
		DimChannel:  {LvlChannel: 15},
		DimTime:     {LvlYear: 2, LvlQuarter: 8, LvlMonth: 24},
	}
	for dname, levels := range want {
		d := s.Dim(dname)
		if d == nil {
			t.Fatalf("dimension %s missing", dname)
		}
		for lname, card := range levels {
			li := d.LevelIndex(lname)
			if li < 0 {
				t.Fatalf("%s: level %s missing", dname, lname)
			}
			if got := d.Levels[li].Card; got != card {
				t.Errorf("%s.%s cardinality = %d, want %d", dname, lname, got, card)
			}
		}
	}
}

func TestAPB1FactCount(t *testing.T) {
	s := APB1()
	// 24 * 14400 * 1440 * 15 * 0.25 = 1,866,240,000 (paper, Figure 1).
	if got := s.N(); got != 1_866_240_000 {
		t.Fatalf("N = %d, want 1,866,240,000", got)
	}
	if got := s.MaxCombinations(); got != 7_464_960_000 {
		t.Fatalf("MaxCombinations = %d, want 7,464,960,000", got)
	}
}

func TestAPB1BitmapSize(t *testing.T) {
	s := APB1()
	// The paper states each bitmap occupies 223 MB (Section 4.4).
	mb := float64((s.N()+7)/8) / (1 << 20) // one bit per fact row
	if mb < 220 || mb > 225 {
		t.Fatalf("bitmap size = %.1f MB, want ~223 MB", mb)
	}
}

func TestFanOutAPB1Product(t *testing.T) {
	p := APB1().Dim(DimProduct)
	// Table 1: elements within parent 8, 3, 5, 4, 2, 15.
	wantFan := []int{3, 5, 4, 2, 15, 1}
	for i, w := range wantFan {
		if got := p.FanOut(i); got != w {
			t.Errorf("FanOut(%d) = %d, want %d", i, got, w)
		}
	}
	if got := p.FanOutBetween(p.LevelIndex(LvlGroup), p.LevelIndex(LvlCode)); got != 30 {
		t.Errorf("codes per group = %d, want 30", got)
	}
}

func TestAncestorDescendant(t *testing.T) {
	tm := APB1().Dim(DimTime)
	month := tm.LevelIndex(LvlMonth)
	quarter := tm.LevelIndex(LvlQuarter)
	year := tm.LevelIndex(LvlYear)

	if got := tm.Ancestor(month, 7, quarter); got != 2 {
		t.Errorf("month 7 quarter = %d, want 2", got)
	}
	if got := tm.Ancestor(month, 23, year); got != 1 {
		t.Errorf("month 23 year = %d, want 1", got)
	}
	lo, hi := tm.DescendantRange(quarter, 2, month)
	if lo != 6 || hi != 9 {
		t.Errorf("quarter 2 months = [%d,%d), want [6,9)", lo, hi)
	}
	lo, hi = tm.DescendantRange(year, 0, month)
	if lo != 0 || hi != 12 {
		t.Errorf("year 0 months = [%d,%d), want [0,12)", lo, hi)
	}
}

func TestChildIndex(t *testing.T) {
	p := APB1().Dim(DimProduct)
	code := p.LevelIndex(LvlCode)
	// codes come 15 per class
	if got := p.ChildIndex(code, 14399); got != 14 {
		t.Errorf("ChildIndex(code, 14399) = %d, want 14", got)
	}
	if got := p.ChildIndex(0, 5); got != 5 {
		t.Errorf("ChildIndex(0, 5) = %d, want 5", got)
	}
}

func TestAncestorDescendantRoundTrip(t *testing.T) {
	// Property: for any member m at a fine level, m lies inside the
	// descendant range of its own ancestor, for every coarser level.
	for _, s := range []*Star{APB1(), Tiny(), APB1Scaled(10), APB1Scaled(100)} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for di := range s.Dims {
			d := &s.Dims[di]
			leaf := d.Leaf()
			f := func(m uint) bool {
				mm := int(m % uint(d.LeafCard()))
				for to := 0; to <= leaf; to++ {
					a := d.Ancestor(leaf, mm, to)
					lo, hi := d.DescendantRange(to, a, leaf)
					if mm < lo || mm >= hi {
						return false
					}
					if a < 0 || a >= d.Levels[to].Card {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Errorf("%s.%s: %v", s.Name, d.Name, err)
			}
		}
	}
}

func TestValidateRejectsBadSchemas(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Star)
	}{
		{"no dims", func(s *Star) { s.Dims = nil }},
		{"zero card", func(s *Star) { s.Dims[0].Levels[0].Card = 0 }},
		{"decreasing card", func(s *Star) { s.Dims[0].Levels[1].Card = 1 }},
		{"non-divisible", func(s *Star) { s.Dims[0].Levels[5].Card = 961 }},
		{"bad density", func(s *Star) { s.Density = 0 }},
		{"density > 1", func(s *Star) { s.Density = 1.5 }},
		{"zero page", func(s *Star) { s.PageSize = 0 }},
		{"tuple > page", func(s *Star) { s.TupleSize = 8192 }},
		{"dup dim", func(s *Star) { s.Dims[1].Name = s.Dims[0].Name }},
		{"empty dim name", func(s *Star) { s.Dims[0].Name = "" }},
		{"no levels", func(s *Star) { s.Dims[0].Levels = nil }},
	}
	for _, c := range cases {
		s := APB1()
		c.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid schema", c.name)
		}
	}
}

func TestDimIndexLookups(t *testing.T) {
	s := APB1()
	if i := s.DimIndex(DimChannel); i != 2 {
		t.Errorf("DimIndex(channel) = %d, want 2", i)
	}
	if i := s.DimIndex("nope"); i != -1 {
		t.Errorf("DimIndex(nope) = %d, want -1", i)
	}
	if d := s.Dim("nope"); d != nil {
		t.Error("Dim(nope) != nil")
	}
	if i := s.Dims[0].LevelIndex("nope"); i != -1 {
		t.Errorf("LevelIndex(nope) = %d, want -1", i)
	}
}

func TestFactPagesAndBytes(t *testing.T) {
	s := APB1()
	// 1,866,240,000 / 200 = 9,331,200 pages.
	if n, tpp := s.N(), int64(s.FactTuplesPerPage()); n != 1_866_240_000 || n%tpp != 0 || n/tpp != 9_331_200 {
		t.Fatalf("%d rows at %d a page, want 9,331,200 full pages", n, tpp)
	}
	// Default tuples-per-page when not pinned.
	s.TuplesPerPage = 0
	if got := s.FactTuplesPerPage(); got != 204 {
		t.Fatalf("default TuplesPerPage = %d, want 204", got)
	}
}

func TestScaledSchemasValid(t *testing.T) {
	for _, f := range []int{1, 5, 10, 60, 100} {
		s := APB1Scaled(f)
		if err := s.Validate(); err != nil {
			t.Errorf("APB1Scaled(%d): %v", f, err)
		}
		if s.N() <= 0 {
			t.Errorf("APB1Scaled(%d): N = %d", f, s.N())
		}
	}
	if s := APB1Scaled(0); s.Name != "APB-1" {
		t.Errorf("APB1Scaled(0) should fall back to full schema, got %s", s.Name)
	}
}

func TestFanOutBetweenPanicsOnReversedLevels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := APB1().Dim(DimProduct)
	p.FanOutBetween(3, 1)
}

func TestAncestorPanicsOnFinerTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := APB1().Dim(DimProduct)
	p.Ancestor(1, 0, 3)
}
