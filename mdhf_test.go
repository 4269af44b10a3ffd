package mdhf

import (
	"context"
	"testing"
)

// TestPublicAPIQuickstart exercises the documented quick-start path.
func TestPublicAPIQuickstart(t *testing.T) {
	star := APB1()
	spec, err := ParseFragmentation(star, "time::month, product::group")
	if err != nil {
		t.Fatal(err)
	}
	idx := APB1Indexes(star)
	q, err := ParseQuery(star, "customer::store=7")
	if err != nil {
		t.Fatal(err)
	}
	c := EstimateCost(spec, idx, q, DefaultCostParams())
	if c.Fragments != 11_520 {
		t.Fatalf("fragments = %d", c.Fragments)
	}
	if spec.IOClassOf(q) != IOC2NoSupp {
		t.Fatalf("IOClass = %v", spec.IOClassOf(q))
	}
}

func TestPublicAPIEngineRoundTrip(t *testing.T) {
	star := TinySchema()
	tab, err := GenerateData(star, 5)
	if err != nil {
		t.Fatal(err)
	}
	icfg := make(IndexConfig, len(star.Dims))
	for i := range icfg {
		icfg[i] = IndexSpec{Kind: EncodedIndex}
	}
	ctx := context.Background()
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Indexes: icfg, Table: tab}, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	gen := NewQueryGenerator(star, 9)
	for _, qt := range []QueryType{OneMonth, OneStore, OneCodeOneQuarter} {
		q, err := gen.Next(qt)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := w.Query(q).Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want := ScanAggregate(tab, q); got.Aggregate != want {
			t.Fatalf("%s: %+v != %+v", qt.Name, got, want)
		}
	}
}

func TestPublicAPISimulation(t *testing.T) {
	star := APB1()
	ctx := context.Background()
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group"}, WithSimConfig(DefaultSimConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	q, _ := ParseQuery(star, "time::month=3, product::group=5")
	rs, err := w.Simulate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].ResponseTime <= 0 || rs[0].Subqueries != 1 {
		t.Fatalf("result = %+v", rs[0])
	}
}

func TestPublicAPIAdvisor(t *testing.T) {
	star := APB1()
	icfg := APB1Indexes(star)
	gen := NewQueryGenerator(star, 2)
	q1, _ := gen.Next(OneMonthOneGroup)
	q2, _ := gen.Next(OneStore)
	mix := []WeightedQuery{
		{Name: "1MONTH1GROUP", Query: q1, Weight: 0.7},
		{Name: "1STORE", Query: q2, Weight: 0.3},
	}
	th := Thresholds{MinBitmapFragPages: 1, MaxFragments: MaxFragments(star, 1)}
	ranked := Advise(star, icfg, mix, th, DefaultCostParams())
	if len(ranked) == 0 {
		t.Fatal("no candidates")
	}
	if ranked[0].Work <= 0 {
		t.Fatal("zero work for best candidate")
	}
}

func TestPublicAPIAllocationAnalysis(t *testing.T) {
	star := APB1()
	spec, _ := ParseFragmentation(star, "time::month, product::group")
	q, _ := ParseQuery(star, "product::code=77")
	// The Section 4.6 gcd pathology via the public API.
	if got := DisksUsed(spec, q, Placement{Disks: 100, Scheme: RoundRobin}); got != 5 {
		t.Fatalf("disks used = %d, want 5", got)
	}
	if got := DisksUsed(spec, q, Placement{Disks: 101, Scheme: RoundRobin}); got != 24 {
		t.Fatalf("prime disks used = %d, want 24", got)
	}
}
