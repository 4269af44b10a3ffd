package workload

import (
	"testing"

	"repro/internal/frag"
	"repro/internal/schema"
)

func TestAllTypesBindOnAPB1(t *testing.T) {
	s := schema.APB1()
	g := NewGenerator(s, 1)
	for _, qt := range All() {
		q, err := g.Next(qt)
		if err != nil {
			t.Fatalf("%s: %v", qt.Name, err)
		}
		if len(q.Preds) != len(qt.Attrs) {
			t.Errorf("%s: %d predicates, want %d", qt.Name, len(q.Preds), len(qt.Attrs))
		}
		if err := q.Validate(s); err != nil {
			t.Errorf("%s: %v", qt.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	qt, err := ByName("1MONTH1GROUP")
	if err != nil || qt.Name != "1MONTH1GROUP" {
		t.Fatalf("ByName: %v %v", qt, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestBindExplicitMembers(t *testing.T) {
	s := schema.APB1()
	q, err := OneMonthOneGroup.Bind(s, []int{3, 42})
	if err != nil {
		t.Fatal(err)
	}
	tm := s.DimIndex(schema.DimTime)
	pd := s.DimIndex(schema.DimProduct)
	if q.Preds[0].Dim != tm || q.Preds[0].Member != 3 {
		t.Errorf("pred 0 = %+v", q.Preds[0])
	}
	if q.Preds[1].Dim != pd || q.Preds[1].Member != 42 {
		t.Errorf("pred 1 = %+v", q.Preds[1])
	}
	if _, err := OneMonthOneGroup.Bind(s, []int{3}); err == nil {
		t.Error("short member list accepted")
	}
	if _, err := OneMonthOneGroup.Bind(s, []int{99, 42}); err == nil {
		t.Error("out-of-domain member accepted")
	}
}

func TestGeneratorDeterministicAndVarying(t *testing.T) {
	s := schema.APB1()
	ga, gb := NewGenerator(s, 7), NewGenerator(s, 7)
	distinct := map[int]bool{}
	for i := 0; i < 20; i++ {
		a, err := ga.Next(OneStore)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := gb.Next(OneStore); a.Preds[0].Member != b.Preds[0].Member {
			t.Fatal("same seed produced different streams")
		}
		distinct[a.Preds[0].Member] = true
	}
	if len(distinct) < 2 {
		t.Error("stream shows no parameter variation")
	}
}

func TestBindFailsOnForeignSchema(t *testing.T) {
	tiny := schema.Tiny() // has no channel dimension
	qt := QueryType{"X", []AttrRef{{schema.DimChannel, schema.LvlChannel}}}
	if _, err := qt.Bind(tiny, []int{0}); err == nil {
		t.Fatal("bind against missing dimension accepted")
	}
	if _, err := NewGenerator(tiny, 1).Next(qt); err == nil {
		t.Fatal("generator against missing dimension accepted")
	}
	qt2 := QueryType{"Y", []AttrRef{{schema.DimProduct, schema.LvlDivision}}}
	if _, err := qt2.Bind(tiny, []int{0}); err == nil {
		t.Fatal("bind against missing level accepted")
	}
}

func TestQueryTypesMatchPaperClassification(t *testing.T) {
	// Under FMonthGroup the paper assigns: 1MONTH1GROUP -> Q1,
	// 1CODE1MONTH -> Q2, 1GROUP1QUARTER -> Q3, 1CODE1QUARTER -> Q4,
	// 1STORE -> unsupported.
	s := schema.APB1()
	spec := frag.MustParse(s, "time::month, product::group")
	g := NewGenerator(s, 3)
	cases := []struct {
		qt   QueryType
		want frag.QueryClass
	}{
		{OneMonthOneGroup, frag.Q1},
		{OneCodeOneMonth, frag.Q2},
		{OneGroupOneQuarter, frag.Q3},
		{OneCodeOneQuarter, frag.Q4},
		{OneStore, frag.Unsupported},
		{OneGroupOneStore, frag.Q1},
	}
	for _, c := range cases {
		q, err := g.Next(c.qt)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.Classify(q); got != c.want {
			t.Errorf("%s: class %v, want %v", c.qt.Name, got, c.want)
		}
	}
}
