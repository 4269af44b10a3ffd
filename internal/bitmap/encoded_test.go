package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/schema"
)

// decode maps a full bit pattern back to the leaf member it encodes.
// Patterns containing out-of-range field values yield -1.
func (l *Layout) decode(v uint64) int {
	leaf := l.dim.Leaf()
	m := 0
	shift := l.TotalBits()
	for i := 0; i <= leaf; i++ {
		shift -= l.fieldBits[i]
		digit := int(v >> uint(shift) & (1<<uint(l.fieldBits[i]) - 1))
		fanIn := l.dim.Levels[i].Card
		if i > 0 {
			fanIn = l.dim.FanOut(i - 1)
		}
		if digit >= fanIn {
			return -1
		}
		m = m*fanIn + digit
	}
	return m
}

// productLayout returns the encoding layout of the APB-1 PRODUCT dimension.
func productLayout() *Layout {
	return NewLayout(schema.APB1().Dim(schema.DimProduct), nil)
}

func TestTable1ProductEncoding(t *testing.T) {
	l := productLayout()
	// Table 1: #bits for encoding = 3, 2, 3, 2, 1, 4 (total 15).
	want := []int{3, 2, 3, 2, 1, 4}
	for i, w := range want {
		if got := l.FieldBits(i); got != w {
			t.Errorf("FieldBits(%d) = %d, want %d", i, got, w)
		}
	}
	if got := l.TotalBits(); got != 15 {
		t.Errorf("TotalBits = %d, want 15", got)
	}
	// "CODEs belonging to the same GROUP ... can be precisely located with
	// access to only 10 of the 15 bitmaps."
	p := schema.APB1().Dim(schema.DimProduct)
	if got := l.PrefixBits(p.LevelIndex(schema.LvlGroup)); got != 10 {
		t.Errorf("PrefixBits(group) = %d, want 10", got)
	}
	if got := l.String(); got != "dddllfffggcoooo" {
		t.Errorf("pattern = %q, want dddllfffggcoooo", got)
	}
}

func TestCustomerEncoding(t *testing.T) {
	c := schema.APB1().Dim(schema.DimCustomer)
	// Paper, Section 3.2: the encoded CUSTOMER index needs 12 bitmaps.
	// With 144 retailers of 10 stores each: ceil(lg 144) + ceil(lg 10) = 8+4.
	l := NewLayout(c, nil)
	if got := l.TotalBits(); got != 12 {
		t.Errorf("customer bits = %d, want 12", got)
	}
	if got := l.FieldBits(0); got != 8 {
		t.Errorf("retailer field = %d bits, want 8", got)
	}
	if got := l.FieldBits(1); got != 4 {
		t.Errorf("store field = %d bits, want 4", got)
	}
	// Padding still works and widens the index.
	padded := NewLayout(c, []int{0, 1})
	if got := padded.TotalBits(); got != 13 {
		t.Errorf("padded customer bits = %d, want 13", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, dim := range schema.APB1().Dims {
		d := dim
		l := NewLayout(&d, nil)
		f := func(m uint) bool {
			mm := int(m % uint(d.LeafCard()))
			return l.decode(l.Encode(mm)) == mm
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestEncodePrefixSharedByDescendants(t *testing.T) {
	p := schema.APB1().Dim(schema.DimProduct)
	l := NewLayout(p, nil)
	group := p.LevelIndex(schema.LvlGroup)
	code := p.Leaf()
	// All codes of group 123 share the group's 10-bit prefix.
	g := 123
	want := l.EncodePrefix(group, g)
	lo, hi := p.DescendantRange(group, g, code)
	for m := lo; m < hi; m++ {
		enc := l.Encode(m)
		if enc>>uint(l.TotalBits()-l.PrefixBits(group)) != want {
			t.Fatalf("code %d prefix mismatch", m)
		}
	}
}

// buildRandomRows generates n rows over the dimension's leaf domain.
func buildRandomRows(d *schema.Dimension, n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(rng.Intn(d.LeafCard()))
	}
	return rows
}

func TestEncodedSelectMatchesScan(t *testing.T) {
	s := schema.Tiny()
	p := s.Dim(schema.DimProduct)
	rows := buildRandomRows(p, 500, 42)
	l := NewLayout(p, nil)
	idx := NewEncodedIndex(l, rows)

	for level := 0; level <= p.Leaf(); level++ {
		for m := 0; m < p.Levels[level].Card; m++ {
			got, nb := idx.Select(level, m)
			if nb != l.PrefixBits(level) {
				t.Fatalf("level %d bitmaps read = %d, want %d", level, nb, l.PrefixBits(level))
			}
			for i, v := range rows {
				want := p.Ancestor(p.Leaf(), int(v), level) == m
				if got.Get(i) != want {
					t.Fatalf("level %d member %d row %d: got %v, want %v", level, m, i, got.Get(i), want)
				}
			}
		}
	}
}

func TestEncodedSelectSuffixWithinFragment(t *testing.T) {
	// Simulate an MDHF fragment on product::group: all rows share one group;
	// selecting a code inside it must work with only the suffix bitmaps.
	s := schema.Tiny()
	p := s.Dim(schema.DimProduct)
	group := p.LevelIndex(schema.LvlGroup)
	leaf := p.Leaf()
	g := 1
	lo, hi := p.DescendantRange(group, g, leaf)
	rng := rand.New(rand.NewSource(7))
	rows := make([]int32, 300)
	for i := range rows {
		rows[i] = int32(lo + rng.Intn(hi-lo))
	}
	l := NewLayout(p, nil)
	idx := NewEncodedIndex(l, rows)
	for m := lo; m < hi; m++ {
		got, nb := idx.SelectPartial(group, leaf, m)
		if nb != l.SuffixBits(group) {
			t.Fatalf("bitmaps read = %d, want %d", nb, l.SuffixBits(group))
		}
		for i, v := range rows {
			if got.Get(i) != (int(v) == m) {
				t.Fatalf("code %d row %d wrong", m, i)
			}
		}
	}
}

func TestSimpleIndexSelect(t *testing.T) {
	s := schema.APB1()
	tm := s.Dim(schema.DimTime)
	rows := buildRandomRows(tm, 1000, 11)
	idx := NewSimpleIndex(tm.LeafCard(), rows)
	if len(idx.maps) != 24 {
		t.Fatalf("%d bitmaps, want 24", len(idx.maps))
	}
	got := New(len(rows))
	for m := 0; m < 24; m++ {
		idx.SelectInto(got, m)
		for i, v := range rows {
			if got.Get(i) != (int(v) == m) {
				t.Fatalf("month %d row %d wrong", m, i)
			}
		}
	}
}

func TestSimpleIndexRejectsOutOfDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSimpleIndex(4, []int32{0, 1, 4})
}

func TestPaperBitmapCounts(t *testing.T) {
	// Section 3.2: encoded indices on PRODUCT (15) and CUSTOMER (12), simple
	// indices on TIME (34 = 24+8+2) and CHANNEL (15): maximum of 76 bitmaps.
	s := schema.APB1()
	prod := NewLayout(s.Dim(schema.DimProduct), nil).TotalBits()
	cust := NewLayout(s.Dim(schema.DimCustomer), nil).TotalBits()
	timeBitmaps := 0
	for _, l := range s.Dim(schema.DimTime).Levels {
		timeBitmaps += l.Card
	}
	chanBitmaps := s.Dim(schema.DimChannel).LeafCard()
	total := prod + cust + timeBitmaps + chanBitmaps
	if prod != 15 || cust != 12 || timeBitmaps != 34 || chanBitmaps != 15 || total != 76 {
		t.Fatalf("bitmap counts = %d/%d/%d/%d (total %d), want 15/12/34/15 (76)",
			prod, cust, timeBitmaps, chanBitmaps, total)
	}
}

func TestEncodedIndexIntersection(t *testing.T) {
	// Two-dimensional star query: AND of selections from two indices
	// (1MONTH1GROUP style) must equal a row-wise predicate scan.
	s := schema.Tiny()
	p := s.Dim(schema.DimProduct)
	tm := s.Dim(schema.DimTime)
	n := 400
	prodRows := buildRandomRows(p, n, 1)
	timeRows := buildRandomRows(tm, n, 2)
	pIdx := NewEncodedIndex(NewLayout(p, nil), prodRows)
	tIdx := NewSimpleIndex(tm.LeafCard(), timeRows)

	group := p.LevelIndex(schema.LvlGroup)
	g, month := 1, 2
	sel, _ := pIdx.Select(group, g)
	sel.And(tIdx.Bitmap(month))
	for i := 0; i < n; i++ {
		want := p.Ancestor(p.Leaf(), int(prodRows[i]), group) == g && int(timeRows[i]) == month
		if sel.Get(i) != want {
			t.Fatalf("row %d: got %v want %v", i, sel.Get(i), want)
		}
	}
}
