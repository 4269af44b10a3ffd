package mdhf

import (
	"context"
	"reflect"
	"testing"
)

func TestPublicAPISkewedData(t *testing.T) {
	star := APB1Scaled(60)
	star.Density = 0.1
	skew := UniformSkew(star)
	skew.Theta[0] = 1.0
	tab, err := GenerateSkewedData(star, 4, skew)
	if err != nil {
		t.Fatal(err)
	}
	if int64(tab.N()) != star.N() {
		t.Fatalf("rows = %d, want %d", tab.N(), star.N())
	}
	// The skewed table works with the regular engine.
	ctx := context.Background()
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Table: tab}, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	q, err := NewQueryGenerator(star, 1).Next(OneGroup)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := w.Query(q).Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := ScanAggregate(tab, q); got.Aggregate != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestPublicAPIStorageRoundTrip(t *testing.T) {
	star := TinySchema()
	tab, err := GenerateData(star, 8)
	if err != nil {
		t.Fatal(err)
	}
	icfg := make(IndexConfig, len(star.Dims))
	for i := range icfg {
		icfg[i] = IndexSpec{Kind: EncodedIndex}
	}
	ctx := context.Background()
	dir := t.TempDir()
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Indexes: icfg, Table: tab}, WithOnDisk(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	q, err := NewQueryGenerator(star, 3).Next(OneStore)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := w.Query(q).Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := ScanAggregate(tab, q)
	if got.Count != want.Count || got.DollarSales != want.DollarSales {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if st.IO.FactPages == 0 {
		t.Fatal("no physical I/O recorded")
	}
}

func TestPublicAPIDimCatalog(t *testing.T) {
	star := APB1()
	catalog := BuildDimCatalog(star)
	q, err := catalog.ParseQuery("customer.store = 'STORE-0007'")
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := ParseFragmentation(star, "customer::store")
	if got := spec.RelevantCount(q); got != 1 {
		t.Fatalf("relevant = %d", got)
	}
}

func TestPublicAPISharedNothingSim(t *testing.T) {
	star := APB1()
	cfg := DefaultSimConfig()
	cfg.Architecture = SharedNothing
	ctx := context.Background()
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group"}, WithSimConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	q, _ := ParseQuery(star, "time::month=3")
	rs, err := w.Simulate(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].ResponseTime <= 0 {
		t.Fatal("shared-nothing query did not complete")
	}
}

func TestPublicAPIDeclusteredStorage(t *testing.T) {
	star := TinySchema()
	tab, err := GenerateData(star, 8)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseFragmentation(star, "time::month, product::group")
	if err != nil {
		t.Fatal(err)
	}
	icfg := make(IndexConfig, len(star.Dims))
	for i := range icfg {
		icfg[i] = IndexSpec{Kind: EncodedIndex}
	}
	ctx := context.Background()
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Indexes: icfg, Table: tab}
	q, err := NewQueryGenerator(star, 3).Next(OneStore)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Open(ctx, cfg, WithOnDisk(""), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	want, wantSt, err := single.Query(q).Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}

	placement := Placement{Disks: 4, Scheme: GapRoundRobin, Staggered: true}
	w, err := Open(ctx, cfg, WithOnDisk(""), WithDisks(4, GapRoundRobin), WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got, gotSt, err := w.Query(q).Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ds := w.DiskSet(); ds == nil || ds.Disks() != 4 {
		t.Fatalf("disk set %v, want 4 disks", ds)
	}
	if !reflect.DeepEqual(got, want) || gotSt.IO != wantSt.IO {
		t.Fatalf("declustered %+v/%+v != single-disk %+v/%+v", got, gotSt.IO, want, wantSt.IO)
	}
	var ios int64
	for _, d := range w.DiskStats() {
		ios += d.IOs
	}
	if gotIO := gotSt.IO; ios != gotIO.FactIOs+gotIO.BitmapIOs {
		t.Fatalf("disk stats account %d IOs, IOStats %d", ios, gotIO.FactIOs+gotIO.BitmapIOs)
	}

	// The analytical side: queue-model response and disk advice.
	est := EstimateResponse(spec, icfg, q, DefaultCostParams(), DiskParams{Placement: placement, AccessTime: 12e6})
	if est.Response <= 0 || est.DisksUsed < 1 {
		t.Fatalf("bad response estimate %+v", est)
	}
	mix := []WeightedQuery{{Name: "1STORE", Query: q, Weight: 1}}
	ranked := AdviseDisks(spec, icfg, mix, DefaultCostParams(), DiskParams{Placement: Placement{Staggered: true}, AccessTime: 12e6}, []int{1, 2, 4})
	if len(ranked) != 6 {
		t.Fatalf("AdviseDisks returned %d candidates, want 6", len(ranked))
	}
	if ranked[0].Placement.Disks == 1 {
		t.Fatal("advice ranked one disk best for a full-fanout query")
	}
}
