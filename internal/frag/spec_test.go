package frag

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/schema"
)

func fMonthGroup(t testing.TB) (*schema.Star, *Spec) {
	s := schema.APB1()
	spec, err := Parse(s, "time::month, product::group")
	if err != nil {
		t.Fatal(err)
	}
	return s, spec
}

func TestFMonthGroupFragmentCount(t *testing.T) {
	_, spec := fMonthGroup(t)
	// Section 4.1: 24 * 480 = 11,520 fragments.
	if got := spec.NumFragments(); got != 11_520 {
		t.Fatalf("NumFragments = %d, want 11520", got)
	}
	if got := spec.String(); got != "{time::month, product::group}" {
		t.Fatalf("String = %q", got)
	}
}

// TestParseReadsString: every fragmentation of APB-1 parses back from
// the braced notation String prints, as table3.csv, table6.csv and the
// advisors print it.
func TestParseReadsString(t *testing.T) {
	s := schema.APB1()
	for _, spec := range Enumerate(s) {
		got, err := Parse(s, spec.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec.String(), err)
		}
		if got.String() != spec.String() {
			t.Fatalf("Parse(%q).String() = %q", spec.String(), got.String())
		}
	}
}

func TestFinestAndCoarsestFragmentations(t *testing.T) {
	s := schema.APB1()
	// Section 4.4: finest option {time::month, product::code,
	// customer::store, channel::channel} yields ~7.5 billion fragments.
	finest := MustParse(s, "time::month, product::code, customer::store, channel::channel")
	if got := finest.NumFragments(); got != 7_464_960_000 {
		t.Fatalf("finest = %d, want 7,464,960,000", got)
	}
	// {time::quarter, product::group, customer::retailer, channel::channel}
	// = 8*480*120*15 ≈ 9 million minus: 6,912,000. The paper says "about 9
	// million"; the exact value depends on the unstated retailer cardinality.
	coarse := MustParse(s, "time::quarter, product::group, customer::retailer, channel::channel")
	n := coarse.NumFragments()
	if n < 5_000_000 || n > 12_000_000 {
		t.Fatalf("four-dim fragments = %d, want on the order of 9 million", n)
	}
}

func TestSpecValidation(t *testing.T) {
	s := schema.APB1()
	if _, err := New(s, nil); err == nil {
		t.Error("empty fragmentation accepted")
	}
	if _, err := New(s, []Attr{{Dim: 9, Level: 0}}); err == nil {
		t.Error("bad dim accepted")
	}
	if _, err := New(s, []Attr{{Dim: 0, Level: 9}}); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := New(s, []Attr{{Dim: 0, Level: 0}, {Dim: 0, Level: 1}}); err == nil {
		t.Error("duplicate dim accepted")
	}
	for _, text := range []string{"nope::month", "time::nope", "time", ""} {
		if _, err := Parse(s, text); err == nil {
			t.Errorf("Parse(%q) accepted", text)
		}
	}
}

func TestCoordIDRoundTrip(t *testing.T) {
	_, spec := fMonthGroup(t)
	f := func(id uint32) bool {
		i := int64(id) % spec.NumFragments()
		return spec.ID(spec.Coord(i)) == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCoordOfFactRow(t *testing.T) {
	s, spec := fMonthGroup(t)
	// Fact row: product code 14399 (group 479), store 0, channel 3, month 17.
	leaf := make([]int, len(s.Dims))
	leaf[s.DimIndex(schema.DimProduct)] = 14399
	leaf[s.DimIndex(schema.DimCustomer)] = 0
	leaf[s.DimIndex(schema.DimChannel)] = 3
	leaf[s.DimIndex(schema.DimTime)] = 17
	coord := spec.CoordOf(leaf)
	if coord[0] != 17 || coord[1] != 479 {
		t.Fatalf("coord = %v, want [17 479]", coord)
	}
	if id := spec.ID(coord); id != 17*480+479 {
		t.Fatalf("id = %d, want %d", id, 17*480+479)
	}
	if id := spec.IDOf(leaf); id != 17*480+479 {
		t.Fatalf("IDOf = %d, want %d", id, 17*480+479)
	}
	if n := testing.AllocsPerRun(100, func() { spec.IDOf(leaf) }); n != 0 {
		t.Fatalf("IDOf allocates %v times per row", n)
	}
}

func TestIDPanicsOutOfRange(t *testing.T) {
	s, spec := fMonthGroup(t)
	leaf := make([]int, len(s.Dims))
	leaf[s.DimIndex(schema.DimTime)] = 24
	for name, call := range map[string]func(){
		"ID":   func() { spec.ID([]int{24, 0}) },
		"IDOf": func() { spec.IDOf(leaf) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			call()
		}()
	}
}

func TestFragmentSizes(t *testing.T) {
	_, spec := fMonthGroup(t)
	// 1,866,240,000 / 11,520 = 162,000 rows; 810 pages at 200/page.
	if got := spec.FragmentRows(); got != 162_000 {
		t.Fatalf("FragmentRows = %g, want 162000", got)
	}
	if got := spec.FragmentPages(); got != 810 {
		t.Fatalf("FragmentPages = %g, want 810", got)
	}
	// Table 6: bitmap fragment size 4.9 pages for FMonthGroup.
	bf := spec.BitmapFragmentPages()
	if bf < 4.85 || bf < 4.9 && bf > 5.0 {
		t.Fatalf("BitmapFragmentPages = %g, want ~4.9", bf)
	}
}

func TestTable6FragmentationParameters(t *testing.T) {
	s := schema.APB1()
	cases := []struct {
		text       string
		fragments  int64
		bfLo, bfHi float64
	}{
		{"time::month, product::group", 11_520, 4.85, 5.0},  // 4.9 pages
		{"time::month, product::class", 23_040, 2.4, 2.55},  // 2.5 pages
		{"time::month, product::code", 345_600, 0.15, 0.17}, // 0.16 pages
	}
	for _, c := range cases {
		spec := MustParse(s, c.text)
		if got := spec.NumFragments(); got != c.fragments {
			t.Errorf("%s: fragments = %d, want %d", c.text, got, c.fragments)
		}
		if bf := spec.BitmapFragmentPages(); bf < c.bfLo || bf > c.bfHi {
			t.Errorf("%s: bitmap fragment = %g pages, want [%g,%g]", c.text, bf, c.bfLo, c.bfHi)
		}
	}
}

func TestMaxFragmentsThreshold(t *testing.T) {
	s := schema.APB1()
	// Section 4.4: PrefetchGran = 4, PgSize = 4K → nmax = 14,238.
	if got := MaxFragments(s, 4); got != 14_238 {
		t.Fatalf("MaxFragments = %d, want 14238", got)
	}
	if got := MaxFragments(s, 1); got != 56_953 {
		t.Fatalf("MaxFragments(1) = %d, want 56953", got)
	}
}

func TestRelevantFragments(t *testing.T) {
	s, spec := fMonthGroup(t)
	p := s.DimIndex(schema.DimProduct)
	c := s.DimIndex(schema.DimCustomer)
	tm := s.DimIndex(schema.DimTime)
	prod := s.Dim(schema.DimProduct)
	timeD := s.Dim(schema.DimTime)

	month := timeD.LevelIndex(schema.LvlMonth)
	quarter := timeD.LevelIndex(schema.LvlQuarter)
	group := prod.LevelIndex(schema.LvlGroup)
	code := prod.LevelIndex(schema.LvlCode)
	store := s.Dim(schema.DimCustomer).LevelIndex(schema.LvlStore)

	cases := []struct {
		name  string
		q     Query
		count int64
		class QueryClass
	}{
		// Q1: 1MONTH1GROUP → exactly 1 fragment.
		{"1MONTH1GROUP", Query{Preds: []Pred{{tm, month, 3}, {p, group, 7}}}, 1, Q1},
		// Q1 subset: 1GROUP over all months → 24 fragments.
		{"1GROUP", Query{Preds: []Pred{{p, group, 7}}}, 24, Q1},
		// Q2: 1CODE1MONTH → 1 fragment.
		{"1CODE1MONTH", Query{Preds: []Pred{{p, code, 77}, {tm, month, 3}}}, 1, Q2},
		// Q2: 1CODE → 24 fragments.
		{"1CODE", Query{Preds: []Pred{{p, code, 77}}}, 24, Q2},
		// Q3: 1GROUP1QUARTER → 3 fragments.
		{"1GROUP1QUARTER", Query{Preds: []Pred{{p, group, 7}, {tm, quarter, 2}}}, 3, Q3},
		// Q3: 1QUARTER over all groups → 480*3 = 1440 fragments.
		{"1QUARTER", Query{Preds: []Pred{{tm, quarter, 2}}}, 1440, Q3},
		// Q4: 1CODE1QUARTER → 3 fragments.
		{"1CODE1QUARTER", Query{Preds: []Pred{{p, code, 77}, {tm, quarter, 2}}}, 3, Q4},
		// Unsupported: 1STORE → all 11,520 fragments.
		{"1STORE", Query{Preds: []Pred{{c, store, 5}}}, 11_520, Unsupported},
		// Q1 + extra non-frag attribute: 1GROUP1STORE → 24 fragments.
		{"1GROUP1STORE", Query{Preds: []Pred{{p, group, 7}, {c, store, 5}}}, 24, Q1},
	}
	for _, tc := range cases {
		if err := tc.q.Validate(s); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := spec.RelevantCount(tc.q); got != tc.count {
			t.Errorf("%s: relevant = %d, want %d", tc.name, got, tc.count)
		}
		if got := spec.Classify(tc.q); got != tc.class {
			t.Errorf("%s: class = %v, want %v", tc.name, got, tc.class)
		}
		if got := int64(len(spec.FragmentIDs(tc.q))); got != tc.count {
			t.Errorf("%s: len(FragmentIDs) = %d, want %d", tc.name, got, tc.count)
		}
	}
}

func TestQuarterEighthOfFragments(t *testing.T) {
	// Section 4.2 (Q3): one QUARTER over all GROUPs processes 480*3
	// fragments — one eighth of all fragments.
	s, spec := fMonthGroup(t)
	tm := s.DimIndex(schema.DimTime)
	quarter := s.Dim(schema.DimTime).LevelIndex(schema.LvlQuarter)
	q := Query{Preds: []Pred{{tm, quarter, 0}}}
	if got, want := spec.RelevantCount(q), spec.NumFragments()/8; got != want {
		t.Fatalf("relevant = %d, want %d", got, want)
	}
}

func TestNeedsBitmap(t *testing.T) {
	s, spec := fMonthGroup(t)
	p := s.DimIndex(schema.DimProduct)
	c := s.DimIndex(schema.DimCustomer)
	tm := s.DimIndex(schema.DimTime)
	prod := s.Dim(schema.DimProduct)

	group := prod.LevelIndex(schema.LvlGroup)
	family := prod.LevelIndex(schema.LvlFamily)
	code := prod.LevelIndex(schema.LvlCode)
	month := s.Dim(schema.DimTime).LevelIndex(schema.LvlMonth)
	year := s.Dim(schema.DimTime).LevelIndex(schema.LvlYear)
	store := s.Dim(schema.DimCustomer).LevelIndex(schema.LvlStore)

	cases := []struct {
		p    Pred
		want bool
	}{
		{Pred{p, group, 0}, false},  // fragmentation attribute itself
		{Pred{p, family, 0}, false}, // coarser level of frag dimension
		{Pred{p, code, 0}, true},    // finer level of frag dimension
		{Pred{tm, month, 0}, false},
		{Pred{tm, year, 0}, false},
		{Pred{c, store, 0}, true}, // non-fragmentation dimension
	}
	for i, tc := range cases {
		if got := spec.NeedsBitmap(tc.p); got != tc.want {
			t.Errorf("case %d: NeedsBitmap = %v, want %v", i, got, tc.want)
		}
	}
}

func TestFragmentSelectivity(t *testing.T) {
	s, spec := fMonthGroup(t)
	p := s.DimIndex(schema.DimProduct)
	c := s.DimIndex(schema.DimCustomer)
	code := s.Dim(schema.DimProduct).LevelIndex(schema.LvlCode)
	group := s.Dim(schema.DimProduct).LevelIndex(schema.LvlGroup)
	store := s.Dim(schema.DimCustomer).LevelIndex(schema.LvlStore)

	// Section 6.3: "Within a product group, the selectivity is 1/30 for a
	// certain product."
	if got := spec.FragmentSelectivity(Query{Preds: []Pred{{p, code, 0}}}); got != 1.0/30 {
		t.Errorf("code-in-fragment selectivity = %g, want 1/30", got)
	}
	// 1STORE: 1/1440 within each fragment.
	if got := spec.FragmentSelectivity(Query{Preds: []Pred{{c, store, 0}}}); got != 1.0/1440 {
		t.Errorf("store-in-fragment selectivity = %g, want 1/1440", got)
	}
	// Fragmentation attribute itself: all fragment rows relevant.
	if got := spec.FragmentSelectivity(Query{Preds: []Pred{{p, group, 0}}}); got != 1 {
		t.Errorf("group-in-fragment selectivity = %g, want 1", got)
	}
}

func TestQueryHitsAndSelectivity(t *testing.T) {
	s, _ := fMonthGroup(t)
	c := s.DimIndex(schema.DimCustomer)
	store := s.Dim(schema.DimCustomer).LevelIndex(schema.LvlStore)
	q := Query{Preds: []Pred{{c, store, 5}}}
	// 1STORE hits = N/1440 = 1,296,000.
	if got := q.Hits(s); got != 1_296_000 {
		t.Fatalf("hits = %g, want 1,296,000", got)
	}
}

func TestForEachFragmentOrderAndEarlyStop(t *testing.T) {
	s, spec := fMonthGroup(t)
	p := s.DimIndex(schema.DimProduct)
	tm := s.DimIndex(schema.DimTime)
	code := s.Dim(schema.DimProduct).LevelIndex(schema.LvlCode)
	quarter := s.Dim(schema.DimTime).LevelIndex(schema.LvlQuarter)

	// 1CODE1QUARTER: 3 fragments, one per month of the quarter, spaced 480
	// apart in allocation order (Section 4.6's gcd discussion).
	q := Query{Preds: []Pred{{p, code, 30}, {tm, quarter, 1}}}
	ids := spec.FragmentIDs(q)
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	g := 30 / 30 // code 30 belongs to group 1
	for i, id := range ids {
		want := int64((3+i)*480 + g)
		if id != want {
			t.Fatalf("ids[%d] = %d, want %d", i, id, want)
		}
	}
	// Early stop after first fragment.
	n := 0
	spec.ForEachFragment(q, func(int64, []int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestRelevantConsistentWithRowMembership(t *testing.T) {
	// Property: for a random query and a random fact row, the row matches
	// the query only if the row's fragment is in the relevant set.
	s := schema.Tiny()
	spec := MustParse(s, "time::month, product::group")
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 2000; iter++ {
		// Random query: each dimension independently gets a predicate.
		var q Query
		for di := range s.Dims {
			if rng.Intn(2) == 0 {
				continue
			}
			li := rng.Intn(s.Dims[di].Depth())
			q.Preds = append(q.Preds, Pred{di, li, rng.Intn(s.Dims[di].Levels[li].Card)})
		}
		if len(q.Preds) == 0 {
			continue
		}
		// Random fact row.
		leaf := make([]int, len(s.Dims))
		for di := range s.Dims {
			leaf[di] = rng.Intn(s.Dims[di].LeafCard())
		}
		matches := true
		for _, p := range q.Preds {
			d := &s.Dims[p.Dim]
			if d.Ancestor(d.Leaf(), leaf[p.Dim], p.Level) != p.Member {
				matches = false
			}
		}
		if !matches {
			continue
		}
		id := spec.ID(spec.CoordOf(leaf))
		found := false
		spec.ForEachFragment(q, func(fid int64, _ []int) bool {
			if fid == id {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("iter %d: matching row's fragment %d not in relevant set (query %v)", iter, id, q)
		}
	}
}

func TestQueryValidate(t *testing.T) {
	s := schema.APB1()
	bad := []Query{
		{Preds: []Pred{{Dim: -1, Level: 0, Member: 0}}},
		{Preds: []Pred{{Dim: 0, Level: 99, Member: 0}}},
		{Preds: []Pred{{Dim: 0, Level: 0, Member: 99}}},
		{Preds: []Pred{{Dim: 0, Level: 0, Member: 0}, {Dim: 0, Level: 1, Member: 0}}},
		{GroupBy: []LevelRef{{Dim: -1, Level: 0}}},
		{GroupBy: []LevelRef{{Dim: 0, Level: 99}}},
		{GroupBy: []LevelRef{{Dim: 0, Level: 0}, {Dim: 0, Level: 0}}},
	}
	for i, q := range bad {
		if err := q.Validate(s); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
	if _, err := ParseQuery(s, "customer::store=5"); err != nil {
		t.Errorf("ParseQuery: %v", err)
	}
	for _, text := range []string{"x::y=0", "customer::store", "customer::store=xx", "customer::nope=0", "customer::store=99999"} {
		if _, err := ParseQuery(s, text); err == nil {
			t.Errorf("ParseQuery(%q) accepted", text)
		}
	}
}
