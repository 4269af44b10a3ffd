package simpad

// Tests for the extensions beyond the paper's published experiments:
// Shared Nothing architecture (footnote 3), fragment clustering granules
// (Section 6.3's proposed fix), and multi-user streams (future work).

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/frag"
	"repro/internal/schema"
)

func TestClusteredPlanQuantities(t *testing.T) {
	s, icfg := apb1Env(t)
	cfg := DefaultConfig()
	spec := frag.MustParse(s, "time::month, product::code")
	plan := NewPlan(spec, icfg, storeQuery(s), cfg)

	if plan.Tasks() != 345_600 {
		t.Fatalf("tasks = %d", plan.Tasks())
	}
	cl := plan.Clustered(32)
	if cl.Tasks() != 345_600/32 {
		t.Fatalf("clustered tasks = %d, want %d", cl.Tasks(), 345_600/32)
	}
	for i := 0; i < cl.Tasks(); i++ {
		if cl.TaskCount(i) != 32 {
			t.Fatalf("task %d count = %d", i, cl.TaskCount(i))
		}
	}
	// Clustered bitmap read: 32 x 0.16 pages = 5.27 -> 6 pages in 2 ops,
	// instead of 32 separate 1-page reads.
	ops := cl.bitmapOps(cfg.PrefetchBitmap, 32)
	pages := 0
	for _, p := range ops {
		pages += p
	}
	if pages > 8 || len(ops) > 2 {
		t.Errorf("clustered bitmap ops = %v (%d pages), want ~6 pages in <=2 ops", ops, pages)
	}
	soloPages := cl.bitmapOps(cfg.PrefetchBitmap, 1)
	if soloPages[0] != 1 {
		t.Errorf("unclustered op = %v, want 1 page", soloPages)
	}
	// Clustered(1) is the identity.
	if plan.Clustered(1) != plan {
		t.Error("Clustered(1) should return the same plan")
	}
}

// TestClusteringFixesFineFragmentation reproduces the Section 6.3 claim:
// clustering fragments restores acceptable 1STORE performance under
// FMonthCode, whose 0.16-page bitmap fragments are otherwise catastrophic.
func TestClusteringFixesFineFragmentation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	s, icfg := apb1Env(t)
	spec := frag.MustParse(s, "time::month, product::code")
	cfg := DefaultConfig()

	run := func(cluster int) float64 {
		placement := alloc.Placement{Disks: cfg.Disks, Scheme: alloc.RoundRobin, Staggered: true, Cluster: cluster}
		sys, err := NewSystem(cfg, icfg, placement, 1)
		if err != nil {
			t.Fatal(err)
		}
		plan := NewPlan(spec, icfg, storeQuery(s), cfg).Clustered(cluster)
		return sys.Run([]*Plan{plan})[0].ResponseTime
	}
	plain := run(1)
	clustered := run(30) // one cluster = one product group's codes
	if clustered >= plain {
		t.Errorf("clustering did not help: %0.1fs vs %0.1fs", clustered, plain)
	}
	if clustered > 0.7*plain {
		t.Errorf("clustering gain too small: %0.1fs vs %0.1fs", clustered, plain)
	}
}

func TestSharedNothingCorrectOwnership(t *testing.T) {
	s, icfg := apb1Env(t)
	cfg := DefaultConfig()
	cfg.Architecture = SharedNothing
	cfg.Disks, cfg.Nodes = 20, 4
	placement := alloc.Placement{Disks: 20, Scheme: alloc.RoundRobin, Staggered: true}
	sys, err := NewSystem(cfg, icfg, placement, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Ownership: disk j belongs to node j*p/d; 5 disks per node.
	for fragID := int64(0); fragID < 40; fragID++ {
		owner := sys.ownerOf(fragID)
		lo, hi := sys.nodeDiskRange(owner)
		fd := placement.FactDisk(fragID)
		if fd < lo || fd >= hi {
			t.Fatalf("fragment %d: fact disk %d outside owner %d's range [%d,%d)", fragID, fd, owner, lo, hi)
		}
		// Bitmap fragments stay within the owner's disks (footnote 3).
		for b := 0; b < 12; b++ {
			bd := sys.bitmapDisk(fragID, b)
			if bd < lo || bd >= hi {
				t.Fatalf("fragment %d bitmap %d: disk %d outside [%d,%d)", fragID, b, bd, lo, hi)
			}
		}
	}
	// Queries still complete.
	spec := frag.MustParse(s, "time::month, product::group")
	plan := NewPlan(spec, icfg, monthQuery(s), cfg)
	rs := sys.Run([]*Plan{plan})
	if rs[0].ResponseTime <= 0 {
		t.Fatal("shared-nothing query did not complete")
	}
}

// TestSharedNothingLoadImbalance demonstrates the architectural
// constraint behind the paper's Shared Disk preference (Section 1): when a
// query's fragments cluster on few disks (the 1CODE gcd pathology of
// Section 4.6), Shared Nothing confines the processing to the owning
// nodes, while Shared Disk spreads the subqueries over all nodes.
func TestSharedNothingLoadImbalance(t *testing.T) {
	s, icfg := apb1Env(t)
	spec := frag.MustParse(s, "time::month, product::group")
	// 1CODE: every 480th fragment; with d=100, gcd 20 -> fragments on 5
	// disks, owned by at most 5 of 20 SN nodes.
	p := s.DimIndex(schema.DimProduct)
	code := s.Dim(schema.DimProduct).LevelIndex(schema.LvlCode)
	q := frag.Query{Preds: []frag.Pred{{Dim: p, Level: code, Member: 0}}}

	run := func(arch Architecture) (Result, int) {
		cfg := DefaultConfig()
		cfg.Architecture = arch
		placement := alloc.Placement{Disks: cfg.Disks, Scheme: alloc.RoundRobin, Staggered: true}
		sys, err := NewSystem(cfg, icfg, placement, 1)
		if err != nil {
			t.Fatal(err)
		}
		plan := NewPlan(spec, icfg, q, cfg)
		res := sys.Run([]*Plan{plan})[0]
		// Count nodes that executed substantial CPU work: busy for more
		// than 0.1 % of the run, which the few message-handling services
		// of the coordinator path stay below.
		busy := 0
		for _, nd := range sys.nodes {
			if nd.cpu.Utilization() > 0.001 {
				busy++
			}
		}
		return res, busy
	}
	sd, sdBusy := run(SharedDisk)
	sn, snBusy := run(SharedNothing)
	if sd.ResponseTime <= 0 || sn.ResponseTime <= 0 {
		t.Fatal("queries did not complete")
	}
	if snBusy > 6 {
		t.Errorf("shared nothing used %d nodes, want <= 6 (5 owners + coordinator)", snBusy)
	}
	if sdBusy < 15 {
		t.Errorf("shared disk used %d nodes, want >= 15 (dynamic assignment)", sdBusy)
	}
	// Both are bound by the same 5 disks here, so times stay comparable.
	ratio := sn.ResponseTime / sd.ResponseTime
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("SN/SD response ratio = %.2f, want within 2x", ratio)
	}
}

func TestRunStreamsMultiUser(t *testing.T) {
	s, icfg := apb1Env(t)
	spec := frag.MustParse(s, "time::month, product::group")
	cfg := DefaultConfig()
	placement := alloc.Placement{Disks: cfg.Disks, Scheme: alloc.RoundRobin, Staggered: true}

	mk := func(n int) []*Plan {
		plans := make([]*Plan, n)
		for i := range plans {
			plans[i] = NewPlan(spec, icfg, monthQuery(s), cfg)
		}
		return plans
	}

	// One stream = single-user baseline.
	sys1, _ := NewSystem(cfg, icfg, placement, 3)
	single := sys1.RunStreams([][]*Plan{mk(2)})
	if len(single) != 1 || len(single[0]) != 2 {
		t.Fatalf("stream results shape: %v", single)
	}
	base := single[0][0].ResponseTime

	// Four concurrent streams: per-query response times degrade.
	sys4, _ := NewSystem(cfg, icfg, placement, 3)
	multi := sys4.RunStreams([][]*Plan{mk(2), mk(2), mk(2), mk(2)})
	var worst float64
	for _, stream := range multi {
		for _, r := range stream {
			if r.ResponseTime <= 0 {
				t.Fatal("query did not complete")
			}
			if r.ResponseTime > worst {
				worst = r.ResponseTime
			}
		}
	}
	if worst < base {
		t.Errorf("multi-user worst response %.2fs below single-user %.2fs", worst, base)
	}
}

func TestArchitectureString(t *testing.T) {
	if SharedDisk.String() != "shared-disk" || SharedNothing.String() != "shared-nothing" {
		t.Error("Architecture.String wrong")
	}
}
