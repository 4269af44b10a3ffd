package simpad

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/frag"
	"repro/internal/schema"
)

func apb1Env(t testing.TB) (*schema.Star, frag.IndexConfig) {
	s := schema.APB1()
	return s, frag.APB1Indexes(s)
}

func storeQuery(s *schema.Star) frag.Query {
	c := s.DimIndex(schema.DimCustomer)
	store := s.Dim(schema.DimCustomer).LevelIndex(schema.LvlStore)
	return frag.Query{Preds: []frag.Pred{{Dim: c, Level: store, Member: 7}}}
}

func monthQuery(s *schema.Star) frag.Query {
	tm := s.DimIndex(schema.DimTime)
	month := s.Dim(schema.DimTime).LevelIndex(schema.LvlMonth)
	return frag.Query{Preds: []frag.Pred{{Dim: tm, Level: month, Member: 3}}}
}

func run1(t testing.TB, cfg Config, spec *frag.Spec, icfg frag.IndexConfig, q frag.Query) Result {
	t.Helper()
	placement := alloc.Placement{Disks: cfg.Disks, Scheme: alloc.RoundRobin, Staggered: true}
	sys, err := NewSystem(cfg, icfg, placement, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(spec, icfg, q, cfg)
	rs := sys.Run([]*Plan{plan})
	return rs[0]
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Disks = 0 },
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.MIPS = 0 },
		func(c *Config) { c.TasksPerNode = 0 },
		func(c *Config) { c.PrefetchFact = 0 },
		func(c *Config) { c.PageSize = 0 },
		func(c *Config) { c.NetMbps = 0 },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewSystemRejectsMismatchedPlacement(t *testing.T) {
	cfg := DefaultConfig()
	_, err := NewSystem(cfg, nil, alloc.Placement{Disks: 5}, 1)
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestPlanQuantitiesFMonthGroup1Store(t *testing.T) {
	s, icfg := apb1Env(t)
	cfg := DefaultConfig()
	spec := frag.MustParse(s, "time::month, product::group")
	plan := NewPlan(spec, icfg, storeQuery(s), cfg)

	if got := len(plan.FragIDs); got != 11_520 {
		t.Fatalf("task list = %d, want 11520", got)
	}
	if plan.BitmapsPerFrag != 12 {
		t.Errorf("bitmaps per fragment = %d, want 12", plan.BitmapsPerFrag)
	}
	if plan.BitmapFragPages != 5 {
		t.Errorf("bitmap fragment pages = %d, want 5", plan.BitmapFragPages)
	}
	if plan.FragPages != 810 {
		t.Errorf("fragment pages = %d, want 810", plan.FragPages)
	}
	if plan.HitsPerFrag < 112 || plan.HitsPerFrag > 113 {
		t.Errorf("hits per fragment = %g, want 112.5", plan.HitsPerFrag)
	}
	// Bitmap fragment of 5 pages reads in one op of 5 pages.
	ops := plan.bitmapOps(cfg.PrefetchBitmap, 1)
	if len(ops) != 1 || ops[0] != 5 {
		t.Errorf("bitmap ops = %v, want [5]", ops)
	}
	// Fact op pages sum to FactPagesPerFrag.
	sum := 0
	for j := 0; j < plan.FactOpsPerFrag; j++ {
		sum += plan.factOpPages(j)
	}
	if sum != plan.FactPagesPerFrag {
		t.Errorf("sum of op pages = %d, want %d", sum, plan.FactPagesPerFrag)
	}
	// Offsets are monotone and within the fragment.
	prev := -1
	for j := 0; j < plan.FactOpsPerFrag; j++ {
		off := plan.factOpOffset(j)
		if off < 0 || off >= plan.FragPages {
			t.Fatalf("op %d offset %d out of range", j, off)
		}
		if off < prev {
			t.Fatalf("offsets not monotone at op %d", j)
		}
		prev = off
	}
}

func TestPlanIOC1MonthQuery(t *testing.T) {
	s, icfg := apb1Env(t)
	cfg := DefaultConfig()
	spec := frag.MustParse(s, "time::month, product::group")
	plan := NewPlan(spec, icfg, monthQuery(s), cfg)
	if got := len(plan.FragIDs); got != 480 {
		t.Fatalf("task list = %d, want 480", got)
	}
	if plan.BitmapsPerFrag != 0 {
		t.Errorf("bitmaps per fragment = %d, want 0 (IOC1)", plan.BitmapsPerFrag)
	}
	// Whole fragment read: 810 pages in 102 ops.
	if plan.FactPagesPerFrag != 810 {
		t.Errorf("fact pages per fragment = %d, want 810", plan.FactPagesPerFrag)
	}
	if plan.FactOpsPerFrag != 102 {
		t.Errorf("fact ops per fragment = %d, want 102", plan.FactOpsPerFrag)
	}
	// All rows are hits.
	if plan.HitsPerFrag != 162_000 {
		t.Errorf("hits per fragment = %g, want 162000", plan.HitsPerFrag)
	}
}

// TestMonthQueryCPUBound reproduces the core of Figure 4: 1MONTH response
// time is determined by the number of processors, roughly 330s of total CPU
// work divided by p.
func TestMonthQueryCPUBound(t *testing.T) {
	s, icfg := apb1Env(t)
	spec := frag.MustParse(s, "time::month, product::group")

	cfg := DefaultConfig()
	cfg.Disks = 100
	cfg.Nodes = 10
	cfg.TasksPerNode = 4
	r := run1(t, cfg, spec, icfg, monthQuery(s))

	// Total CPU: 480 fragments x 810 pages x (3000 + 200*200) instr
	// ≈ 16.7 G instr / 50 MIPS ≈ 335 s; /10 nodes ≈ 33.5 s.
	if r.ResponseTime < 25 || r.ResponseTime > 50 {
		t.Errorf("1MONTH on 10 nodes: %.1fs, want ~33s", r.ResponseTime)
	}

	// Doubling processors halves response time (near-linear speed-up).
	cfg2 := cfg
	cfg2.Nodes = 20
	r2 := run1(t, cfg2, spec, icfg, monthQuery(s))
	speedup := r.ResponseTime / r2.ResponseTime
	if speedup < 1.6 || speedup > 2.4 {
		t.Errorf("speed-up 10->20 nodes = %.2f, want ~2", speedup)
	}
}

// TestMonthQueryDiskIndependent: 1MONTH is CPU-bound; changing the disk
// count must not change response times much (Figure 4: "response times
// depend on the number of processors rather than disks").
func TestMonthQueryDiskIndependent(t *testing.T) {
	s, icfg := apb1Env(t)
	spec := frag.MustParse(s, "time::month, product::group")
	cfg := DefaultConfig()
	cfg.Nodes = 5
	cfg.TasksPerNode = 4

	cfg.Disks = 20
	r20 := run1(t, cfg, spec, icfg, monthQuery(s))
	cfg.Disks = 100
	r100 := run1(t, cfg, spec, icfg, monthQuery(s))
	ratio := r20.ResponseTime / r100.ResponseTime
	if ratio < 0.9 || ratio > 1.5 {
		t.Errorf("1MONTH d=20 vs d=100 ratio = %.2f, want ~1", ratio)
	}
}

// TestStoreQueryDiskBound reproduces the core of Figure 3: 1STORE depends
// on the number of disks; more disks → proportionally faster.
func TestStoreQueryDiskBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	s, icfg := apb1Env(t)
	spec := frag.MustParse(s, "time::month, product::group")

	cfg := DefaultConfig()
	cfg.Disks = 20
	cfg.Nodes = 4
	cfg.TasksPerNode = 5 // t = d/p
	r20 := run1(t, cfg, spec, icfg, storeQuery(s))

	cfg2 := DefaultConfig()
	cfg2.Disks = 100
	cfg2.Nodes = 20
	cfg2.TasksPerNode = 5
	r100 := run1(t, cfg2, spec, icfg, storeQuery(s))

	// Figure 3: ~600s at d=20 down to ~120s at d=100, speed-up ≈ 5
	// (slightly superlinear). Allow a generous band.
	speedup := r20.ResponseTime / r100.ResponseTime
	if speedup < 3.5 || speedup > 8 {
		t.Errorf("1STORE speed-up d 20->100 = %.2f, want ~5", speedup)
	}
	if r100.ResponseTime < 60 || r100.ResponseTime > 250 {
		t.Errorf("1STORE at d=100: %.0fs, want order of 120s", r100.ResponseTime)
	}
	// Same p, more disks should not hurt; also both queries must do the
	// same number of subqueries.
	if r20.Subqueries != 11_520 || r100.Subqueries != 11_520 {
		t.Errorf("subqueries = %d / %d, want 11520", r20.Subqueries, r100.Subqueries)
	}
}

// TestParallelBitmapIOHelps reproduces Figure 5's claim: parallel bitmap
// I/O improves 1STORE response times (up to ~13%), most at low t.
func TestParallelBitmapIOHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	s, icfg := apb1Env(t)
	spec := frag.MustParse(s, "time::month, product::group")

	cfg := DefaultConfig()
	cfg.TasksPerNode = 2
	cfg.ParallelBitmapIO = true
	par := run1(t, cfg, spec, icfg, storeQuery(s))

	cfg.ParallelBitmapIO = false
	seq := run1(t, cfg, spec, icfg, storeQuery(s))

	if par.ResponseTime >= seq.ResponseTime {
		t.Errorf("parallel bitmap I/O (%.1fs) not faster than sequential (%.1fs)",
			par.ResponseTime, seq.ResponseTime)
	}
	improvement := 1 - par.ResponseTime/seq.ResponseTime
	if improvement > 0.35 {
		t.Errorf("improvement = %.0f%%, implausibly large", improvement*100)
	}
}

// TestSubqueriesScaleWithT reproduces the left side of Figure 5: raising t
// from 1 towards 5 (i.e. 100 subqueries on 100 disks) speeds up 1STORE
// roughly linearly.
func TestSubqueriesScaleWithT(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	s, icfg := apb1Env(t)
	spec := frag.MustParse(s, "time::month, product::group")

	times := map[int]float64{}
	for _, tasks := range []int{1, 5} {
		cfg := DefaultConfig()
		cfg.TasksPerNode = tasks
		r := run1(t, cfg, spec, icfg, storeQuery(s))
		times[tasks] = r.ResponseTime
	}
	speedup := times[1] / times[5]
	if speedup < 2.5 || speedup > 7 {
		t.Errorf("t=1 -> t=5 speed-up = %.2f, want ~4-5", speedup)
	}
}

func TestRunSequentialQueries(t *testing.T) {
	s, icfg := apb1Env(t)
	spec := frag.MustParse(s, "time::month, product::group")
	cfg := DefaultConfig()
	placement := alloc.Placement{Disks: cfg.Disks, Scheme: alloc.RoundRobin, Staggered: true}
	sys, err := NewSystem(cfg, icfg, placement, 42)
	if err != nil {
		t.Fatal(err)
	}
	p := s.DimIndex(schema.DimProduct)
	tm := s.DimIndex(schema.DimTime)
	group := s.Dim(schema.DimProduct).LevelIndex(schema.LvlGroup)
	month := s.Dim(schema.DimTime).LevelIndex(schema.LvlMonth)
	q := frag.Query{Preds: []frag.Pred{{Dim: tm, Level: month, Member: 0}, {Dim: p, Level: group, Member: 0}}}

	plans := []*Plan{
		NewPlan(spec, icfg, q, cfg),
		NewPlan(spec, icfg, q, cfg),
	}
	rs := sys.Run(plans)
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	for i, r := range rs {
		if r.ResponseTime <= 0 {
			t.Errorf("query %d response time = %g", i, r.ResponseTime)
		}
		if r.Subqueries != 1 {
			t.Errorf("query %d subqueries = %d, want 1", i, r.Subqueries)
		}
	}
	// The second identical query benefits from the buffer.
	if rs[1].ResponseTime > rs[0].ResponseTime {
		t.Errorf("second run slower: %g vs %g", rs[1].ResponseTime, rs[0].ResponseTime)
	}
	if rs[1].DiskPages >= rs[0].DiskPages && rs[0].DiskPages > 0 {
		t.Errorf("second run read %d pages, first %d — expected buffer hits", rs[1].DiskPages, rs[0].DiskPages)
	}
}

func TestRunConcurrentMultiUser(t *testing.T) {
	s, icfg := apb1Env(t)
	spec := frag.MustParse(s, "time::month, product::group")
	cfg := DefaultConfig()
	placement := alloc.Placement{Disks: cfg.Disks, Scheme: alloc.RoundRobin, Staggered: true}
	sysSeq, _ := NewSystem(cfg, icfg, placement, 7)
	sysCon, _ := NewSystem(cfg, icfg, placement, 7)

	var plans []*Plan
	var streams [][]*Plan
	for i := 0; i < 3; i++ {
		plans = append(plans, NewPlan(spec, icfg, monthQuery(s), cfg))
		streams = append(streams, []*Plan{NewPlan(spec, icfg, monthQuery(s), cfg)})
	}
	seq := sysSeq.Run(plans)
	con := sysCon.RunStreams(streams) // three one-query streams start at time zero
	// Concurrent queries contend: each individual response time is at least
	// the unloaded one (compare against the first sequential query, which
	// ran on a cold system).
	for i, stream := range con {
		if r := stream[0]; r.ResponseTime < seq[0].ResponseTime*0.5 {
			t.Errorf("concurrent query %d faster than unloaded system: %g vs %g",
				i, r.ResponseTime, seq[0].ResponseTime)
		}
	}
}

func TestDeadlockGuardSingleNodeT1(t *testing.T) {
	s, icfg := apb1Env(t)
	spec := frag.MustParse(s, "time::month, product::group")
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.Disks = 4
	cfg.TasksPerNode = 1
	placement := alloc.Placement{Disks: 4, Scheme: alloc.RoundRobin, Staggered: true}
	sys, err := NewSystem(cfg, icfg, placement, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := s.DimIndex(schema.DimProduct)
	tm := s.DimIndex(schema.DimTime)
	group := s.Dim(schema.DimProduct).LevelIndex(schema.LvlGroup)
	month := s.Dim(schema.DimTime).LevelIndex(schema.LvlMonth)
	q := frag.Query{Preds: []frag.Pred{{Dim: tm, Level: month, Member: 0}, {Dim: p, Level: group, Member: 0}}}
	rs := sys.Run([]*Plan{NewPlan(spec, icfg, q, cfg)})
	if rs[0].ResponseTime <= 0 {
		t.Fatal("query did not complete (scheduler deadlock)")
	}
}

func TestDiskSeekModel(t *testing.T) {
	cfg := DefaultConfig()
	d := disk{cfg: &cfg}
	if got := d.seekSeconds(0); got != 0 {
		t.Errorf("zero-distance seek = %g", got)
	}
	// Full-stroke seek is the maximum: avg/E[sqrt dist] * 1.
	full := d.seekSeconds(1)
	if full <= cfg.AvgSeekMs/1000 {
		t.Errorf("full-stroke seek %g not above average %g", full, cfg.AvgSeekMs/1000)
	}
	// Monotone in distance.
	prev := 0.0
	for _, dist := range []float64{0.01, 0.1, 0.3, 0.7, 1} {
		v := d.seekSeconds(dist)
		if v <= prev {
			t.Errorf("seek not monotone at %g", dist)
		}
		prev = v
	}
	// Average over uniform random pairs ≈ AvgSeekMs.
	sum := 0.0
	n := 0
	for i := 0; i < 200; i++ {
		for j := 0; j < 200; j++ {
			sum += d.seekSeconds(abs(float64(i)/200 - float64(j)/200))
			n++
		}
	}
	avg := sum / float64(n) * 1000
	if avg < 9 || avg > 11 {
		t.Errorf("mean seek = %.2fms, want ~10ms", avg)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestLRUBuffer(t *testing.T) {
	b := newLRUBuffer(10)
	k1 := bufferKey{frag: 1}
	k2 := bufferKey{frag: 2}
	k3 := bufferKey{frag: 3}
	if b.lookup(k1) {
		t.Fatal("empty buffer hit")
	}
	b.insert(k1, 5)
	b.insert(k2, 5)
	if !b.lookup(k1) || !b.lookup(k2) {
		t.Fatal("inserted entries missing")
	}
	// k3 evicts the LRU entry. k1 was touched after k2's insert, so k2 is
	// evicted first... but k2 was looked up last, making k1 LRU.
	b.insert(k3, 5)
	if b.lookup(k1) {
		t.Error("k1 should have been evicted")
	}
	if !b.lookup(k2) || !b.lookup(k3) {
		t.Error("k2/k3 should be cached")
	}
	// Oversized granule is not cached.
	b.insert(bufferKey{frag: 4}, 11)
	if b.lookup(bufferKey{frag: 4}) {
		t.Error("oversized granule cached")
	}
	if hr := combinedHitRate(b); hr <= 0 || hr >= 1 {
		t.Errorf("hit rate = %g", hr)
	}
}
