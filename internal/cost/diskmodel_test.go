package cost

import (
	"math"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/frag"
	"repro/internal/schema"
	"repro/internal/workload"
)

func diskModelFixture(t *testing.T) (*schema.Star, *frag.Spec, frag.IndexConfig, frag.Query, frag.Query) {
	t.Helper()
	s := schema.APB1()
	spec := frag.MustParse(s, "time::month, product::group")
	icfg := frag.APB1Indexes(s)
	pd := s.DimIndex(schema.DimProduct)
	cd := s.DimIndex(schema.DimCustomer)
	qCode := frag.Query{Preds: []frag.Pred{{Dim: pd, Level: s.Dims[pd].LevelIndex(schema.LvlCode), Member: 77}}}
	qStore := frag.Query{Preds: []frag.Pred{{Dim: cd, Level: s.Dims[cd].LevelIndex(schema.LvlStore), Member: 7}}}
	return s, spec, icfg, qCode, qStore
}

func TestEstimateResponseScalesWithDisks(t *testing.T) {
	_, spec, icfg, _, qStore := diskModelFixture(t)
	p := DefaultParams()
	var prev time.Duration
	for i, d := range []int{1, 2, 4, 8, 16} {
		dp := DiskParams{
			Placement:  alloc.Placement{Disks: d, Scheme: alloc.RoundRobin, Staggered: true},
			AccessTime: 12 * time.Millisecond,
		}
		r := EstimateResponse(spec, icfg, qStore, p, dp)
		if r.Response <= 0 {
			t.Fatalf("d=%d: non-positive response %v", d, r.Response)
		}
		// 1STORE touches every fragment: response must strictly improve
		// with more disks, close to linearly for small d.
		if i > 0 && r.Response >= prev {
			t.Errorf("d=%d: response %v did not improve on %v", d, r.Response, prev)
		}
		if want := d; r.DisksUsed != want {
			t.Errorf("d=%d: DisksUsed = %d, want %d", d, r.DisksUsed, want)
		}
		prev = r.Response
	}
	// Near-linear at 8 disks for the full-fanout query.
	one := EstimateResponse(spec, icfg, qStore, p, DiskParams{Placement: alloc.Placement{Disks: 1}, AccessTime: 12 * time.Millisecond})
	eight := EstimateResponse(spec, icfg, qStore, p, DiskParams{Placement: alloc.Placement{Disks: 8, Staggered: true}, AccessTime: 12 * time.Millisecond})
	if speedup := float64(one.Response) / float64(eight.Response); speedup < 6 {
		t.Errorf("8-disk modelled speedup %.2f, want near-linear (>= 6)", speedup)
	}
}

func TestEstimateResponseGcdClustering(t *testing.T) {
	// The Section 4.6 example, quantified: 1CODE's stride-480 access over
	// 100 round-robin disks convoys on 5 disks; 101 (prime) disks or the
	// gap scheme restore parallelism, so both must model substantially
	// faster — and the clustered case must show the imbalance.
	_, spec, icfg, qCode, _ := diskModelFixture(t)
	p := DefaultParams()
	access := 12 * time.Millisecond
	rr100 := EstimateResponse(spec, icfg, qCode, p, DiskParams{
		Placement: alloc.Placement{Disks: 100, Scheme: alloc.RoundRobin, Staggered: true}, AccessTime: access})
	prime := EstimateResponse(spec, icfg, qCode, p, DiskParams{
		Placement: alloc.Placement{Disks: 101, Scheme: alloc.RoundRobin, Staggered: true}, AccessTime: access})
	gap := EstimateResponse(spec, icfg, qCode, p, DiskParams{
		Placement: alloc.Placement{Disks: 100, Scheme: alloc.GapRoundRobin, Staggered: true}, AccessTime: access})
	if float64(rr100.Response) < 2*float64(prime.Response) {
		t.Errorf("gcd-clustered 100-disk response %v not >> prime 101-disk %v", rr100.Response, prime.Response)
	}
	if float64(rr100.Response) < 2*float64(gap.Response) {
		t.Errorf("gcd-clustered 100-disk response %v not >> gap-scheme %v", rr100.Response, gap.Response)
	}
	if rr100.Imbalance <= prime.Imbalance {
		t.Errorf("clustered imbalance %.2f not above prime-disk imbalance %.2f", rr100.Imbalance, prime.Imbalance)
	}
}

func TestEstimateResponseWorkerBound(t *testing.T) {
	// With fewer workers than disks, the worker-limited critical path
	// dominates: 16 disks at 4 workers cannot beat total/4.
	_, spec, icfg, _, qStore := diskModelFixture(t)
	p := DefaultParams()
	dp := DiskParams{
		Placement:  alloc.Placement{Disks: 16, Scheme: alloc.RoundRobin, Staggered: true},
		AccessTime: 12 * time.Millisecond,
		Workers:    4,
	}
	r := EstimateResponse(spec, icfg, qStore, p, dp)
	total := 0.0
	for _, l := range r.DiskIOs {
		total += l
	}
	if want := total / 4; r.EffectiveIOs < want-1e-9 {
		t.Errorf("EffectiveIOs %.1f below worker-limited bound %.1f", r.EffectiveIOs, want)
	}
}

func TestAdviseDisksRanking(t *testing.T) {
	s, spec, icfg, _, _ := diskModelFixture(t)
	gen := workload.NewGenerator(s, 1)
	var mix []WeightedQuery
	for _, qt := range []workload.QueryType{workload.OneStore, workload.OneCodeOneQuarter} {
		q, err := gen.Next(qt)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, WeightedQuery{Name: qt.Name, Query: q, Weight: 0.5})
	}
	dp := DiskParams{Placement: alloc.Placement{Staggered: true}, AccessTime: 12 * time.Millisecond}
	ranked := AdviseDisks(spec, icfg, mix, DefaultParams(), dp, []int{1, 2, 4, 8, 16})
	if len(ranked) != 10 { // 5 disk counts x 2 schemes
		t.Fatalf("got %d candidates, want 10", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Response < ranked[i-1].Response {
			t.Fatalf("ranking not sorted: %v before %v", ranked[i-1].Response, ranked[i].Response)
		}
	}
	best, worst := ranked[0], ranked[len(ranked)-1]
	if best.Placement.Disks <= 1 {
		t.Errorf("best candidate uses %d disks; more disks should win", best.Placement.Disks)
	}
	if worst.Placement.Disks != 1 {
		t.Errorf("worst candidate uses %d disks, want the single disk", worst.Placement.Disks)
	}
	if best.Speedup <= worst.Speedup {
		t.Errorf("best speedup %.2f not above worst %.2f", best.Speedup, worst.Speedup)
	}
	// The single-disk candidate is its own baseline.
	for _, r := range ranked {
		if r.Placement.Disks == 1 && (r.Speedup < 0.99 || r.Speedup > 1.01) {
			t.Errorf("single-disk speedup = %.3f, want 1", r.Speedup)
		}
	}
}

func TestEstimateResponseZeroValuePlacement(t *testing.T) {
	// A zero-value DiskParams.Placement must clamp to one disk, not
	// divide by zero inside FactDisk.
	_, spec, icfg, _, qStore := diskModelFixture(t)
	r := EstimateResponse(spec, icfg, qStore, DefaultParams(), DiskParams{AccessTime: 12 * time.Millisecond})
	if len(r.DiskIOs) != 1 || r.DisksUsed != 1 {
		t.Fatalf("zero-value placement: %d disks, %d used, want 1/1", len(r.DiskIOs), r.DisksUsed)
	}
	if r.Response <= 0 {
		t.Fatalf("zero-value placement response %v", r.Response)
	}
}

func TestEstimateResponseEmptyQueryAndMix(t *testing.T) {
	_, spec, icfg, _, _ := diskModelFixture(t)
	// A query with no relevant fragments yields a zero estimate rather
	// than dividing by zero. Member beyond any data still has fragments,
	// so use an empty fragmentation interaction instead: zero-weight mix.
	resp, imb := weightedResponseImbalance(spec, icfg, nil, DefaultParams(), DiskParams{Placement: alloc.Placement{Disks: 4}})
	if resp != 0 || imb != 0 {
		t.Errorf("empty mix: response %v imbalance %v", resp, imb)
	}
}

func TestEstimateResponseTwoTierNodes(t *testing.T) {
	// The cluster response model: with a NodePlacement, I/Os route to
	// node-major (node, disk-within-node) queues and the bottleneck is a
	// node's own deepest disk — never a pool the disks of different
	// nodes could share.
	_, spec, icfg, _, qStore := diskModelFixture(t)
	p := DefaultParams()
	at := 12 * time.Millisecond
	const nodes, d = 4, 2
	dp := DiskParams{
		Placement:     alloc.Placement{Disks: d, Scheme: alloc.RoundRobin, Staggered: true},
		NodePlacement: alloc.Placement{Disks: nodes, Scheme: alloc.RoundRobin},
		AccessTime:    at,
	}
	r := EstimateResponse(spec, icfg, qStore, p, dp)
	if r.Nodes != nodes {
		t.Fatalf("Nodes = %d, want %d", r.Nodes, nodes)
	}
	if len(r.DiskIOs) != nodes*d {
		t.Fatalf("%d queues, want %d (node-major)", len(r.DiskIOs), nodes*d)
	}
	if len(r.NodeIOs) != nodes || r.NodesUsed != nodes {
		t.Fatalf("NodeIOs/%d NodesUsed=%d, want %d nodes all used for the full-fanout query",
			len(r.NodeIOs), r.NodesUsed, nodes)
	}
	// NodeIOs is the per-node sum of that node's disk queues, and the
	// bottleneck node owns the globally deepest queue.
	var total float64
	maxQ, argmax := 0.0, 0
	for i, l := range r.DiskIOs {
		total += l
		if l > maxQ {
			maxQ, argmax = l, i
		}
	}
	var nodeTotal float64
	for n := 0; n < nodes; n++ {
		var sum float64
		for k := 0; k < d; k++ {
			sum += r.DiskIOs[n*d+k]
		}
		if diff := sum - r.NodeIOs[n]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("node %d: NodeIOs %.3f != disk sum %.3f", n, r.NodeIOs[n], sum)
		}
		nodeTotal += r.NodeIOs[n]
	}
	if diff := nodeTotal - total; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("NodeIOs total %.3f != DiskIOs total %.3f", nodeTotal, total)
	}
	if r.BottleneckIOs != maxQ || r.BottleneckNode != argmax/d {
		t.Errorf("bottleneck %v@node %d, want %v@node %d", r.BottleneckIOs, r.BottleneckNode, maxQ, argmax/d)
	}

	// Never better than pooling: the same nodes*d queues on one node is
	// a lower bound (a global pool can only balance better).
	pooled := EstimateResponse(spec, icfg, qStore, p, DiskParams{
		Placement:  alloc.Placement{Disks: nodes * d, Scheme: alloc.RoundRobin, Staggered: true},
		AccessTime: at,
	})
	if r.Response < pooled.Response {
		t.Errorf("two-tier response %v beats pooled %v", r.Response, pooled.Response)
	}

	// Zero NodePlacement stays single-tier: identical to the legacy model.
	single := EstimateResponse(spec, icfg, qStore, p, DiskParams{
		Placement:  dp.Placement,
		AccessTime: at,
	})
	if single.Nodes != 1 || len(single.NodeIOs) != 1 || len(single.DiskIOs) != d {
		t.Fatalf("zero NodePlacement: Nodes=%d queues=%d, want legacy single-tier", single.Nodes, len(single.DiskIOs))
	}
}

func TestEstimateResponseTwoTierWorkerBound(t *testing.T) {
	// The worker bound applies per node: each node's pool drains only its
	// own shard, so the critical path is max(bottleneck disk, slowest
	// node's total / that node's workers) — not the cluster total over a
	// pooled worker count.
	_, spec, icfg, _, qStore := diskModelFixture(t)
	p := DefaultParams()
	dp := DiskParams{
		Placement:     alloc.Placement{Disks: 2, Scheme: alloc.RoundRobin, Staggered: true},
		NodePlacement: alloc.Placement{Disks: 4, Scheme: alloc.RoundRobin},
		AccessTime:    12 * time.Millisecond,
		Workers:       1,
	}
	r := EstimateResponse(spec, icfg, qStore, p, dp)
	maxNode := 0.0
	for _, l := range r.NodeIOs {
		if l > maxNode {
			maxNode = l
		}
	}
	want := r.BottleneckIOs
	if maxNode > want {
		want = maxNode
	}
	if diff := r.EffectiveIOs - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("EffectiveIOs = %.3f, want max(bottleneck %.3f, slowest node %.3f / 1 worker)",
			r.EffectiveIOs, r.BottleneckIOs, maxNode)
	}
	var total float64
	for _, l := range r.DiskIOs {
		total += l
	}
	if r.EffectiveIOs >= total {
		t.Errorf("per-node worker bound %.3f reached the pooled cluster total %.3f", r.EffectiveIOs, total)
	}
}

// TestPackedBitmapUnits: the packed-layout model counts and routes bitmap
// I/O per allocation unit. At a page or more per bitmap fragment (the
// paper's regime) the units are the stored indices of the bitmaps a
// subquery reads — the counts of the zero-value layout, the paper's,
// unchanged; below a page the bitmap fragments of a subquery share units,
// so it issues fewer I/Os than it reads bitmaps, all on the disks of
// those few units.
func TestPackedBitmapUnits(t *testing.T) {
	s, paper, icfg, _, qStore := diskModelFixture(t)
	p := DefaultParams()
	pl := alloc.Placement{Disks: 7, Scheme: alloc.RoundRobin, Staggered: true}

	// month x group: 4.7-page bitmap fragments. 1STORE reads the 12
	// customer bits, stored behind the 5 surviving product bits.
	units := BitmapUnits(paper, icfg, qStore)
	if len(units) != 12 || units[0] != 5 || units[11] != 16 {
		t.Fatalf("paper regime: units %v, want the stored indices 5..16", units)
	}
	packed := EstimateResponse(paper, icfg, qStore, p, DiskParams{Placement: pl, PackedBitmaps: true})
	if want := Estimate(paper, icfg, qStore, p); packed.Cost != want {
		t.Errorf("paper regime: packed cost %+v, want Estimate's %+v", packed.Cost, want)
	}

	// month x code: 0.16-page bitmap fragments, 6 to a page. The 12
	// customer bits are the only survivors (code is the product leaf), so
	// they fill units 0 and 1.
	sub := frag.MustParse(s, "time::month, product::code")
	if units := BitmapUnits(sub, icfg, qStore); len(units) != 2 || units[0] != 0 || units[1] != 1 {
		t.Fatalf("sub-page regime: units %v, want [0 1]", units)
	}
	padded := EstimateResponse(sub, icfg, qStore, p, DiskParams{Placement: pl})
	packed = EstimateResponse(sub, icfg, qStore, p, DiskParams{Placement: pl, PackedBitmaps: true})
	if padded.Cost != Estimate(sub, icfg, qStore, p) || padded.Cost.BitmapIOs != 12*padded.Cost.Fragments {
		t.Errorf("zero-value layout: cost %+v is not the paper's 12 bitmap I/Os per fragment", padded.Cost)
	}
	if c := packed.Cost; c.BitmapIOs != 2*c.Fragments || c.BitmapPages != 2*c.Fragments || c.FactIOs != padded.Cost.FactIOs {
		t.Errorf("packed layout: cost %+v, want 2 one-page bitmap I/Os per fragment and the same fact I/O", c)
	}
	var sum float64
	for _, l := range packed.DiskIOs {
		sum += l
	}
	if math.Round(sum) != float64(packed.Cost.TotalIOs()) {
		t.Errorf("packed layout routes %.0f I/Os, cost has %d", sum, packed.Cost.TotalIOs())
	}
}
