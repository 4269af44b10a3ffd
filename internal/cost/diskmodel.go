package cost

import (
	"time"

	"repro/internal/alloc"
	"repro/internal/frag"
)

// Per-disk queue model (Section 4.6 made quantitative): the analytical
// cost model of cost.go yields the I/O operation counts of a query; this
// file distributes those operations over the disks of an alloc.Placement
// and estimates response time from the bottleneck queue — the measured
// behaviour of storage.DiskSet, where every disk serializes its accesses.

// DiskParams configures the per-disk queue response model.
type DiskParams struct {
	// Placement maps fact and bitmap fragments to disks.
	Placement alloc.Placement
	// AccessTime is the per-access latency of one disk (seek + settle +
	// controller), the Table 4 disk model.
	AccessTime time.Duration
	// TransferPerPage is the per-page transfer time added to each access.
	TransferPerPage time.Duration
	// Workers bounds the number of concurrent fragment subqueries issuing
	// I/O (0 = unbounded, i.e. only the disks limit parallelism). With a
	// NodePlacement the bound applies per node: each node drives its own
	// worker pool, so the worker-limited critical path is the slowest
	// node's share over its own Workers, not the cluster total pooled.
	Workers int
	// NodePlacement, when it has more than one disk, shards the fragments
	// over that many *nodes* one level above Placement: fragment id is
	// served by node NodePlacement.FactDisk(id), whose own Placement.Disks
	// disks hold the node's shard. The response model then becomes
	// two-tier — I/Os route to (node, disk-within-node) queues, and the
	// bottleneck is the deepest per-node disk queue (max over nodes of the
	// node's own bottleneck disk), never a fictitious global pool that
	// disks of different nodes could share. Zero means a single node.
	NodePlacement alloc.Placement
	// PackedBitmaps says the modelled store packs sub-page bitmap fragments
	// into shared allocation units (storage.BitmapFile's layout): bitmap
	// I/Os are then counted and routed per unit a subquery reads
	// (BitmapUnits). It is a fact about a built store, which Warehouse and
	// Cluster fill in; the zero value is the paper's layout — every bitmap
	// fragment its own unit, the k-th one a subquery reads on the k-th
	// staggered disk — which SIMPAD and the paper's tables model.
	PackedBitmaps bool
	// Degraded maps disk index → expected-attempts multiplier for a disk
	// serving reads through retries (see RetryFactor): its routed I/Os are
	// inflated by the factor, so a flaky disk deepens its queue and can
	// become (or worsen) the bottleneck. Disks absent from the map are
	// healthy (factor 1).
	Degraded map[int]float64
}

// RetryFactor converts a per-read fault probability p into the expected
// number of attempts per successful read under retry-until-success,
// 1/(1-p) — the load multiplier a degraded disk imposes on its queue.
// Probabilities at or above 1 are clamped just below it.
func RetryFactor(p float64) float64 {
	if p <= 0 {
		return 1
	}
	if p > 0.99 {
		p = 0.99
	}
	return 1 / (1 - p)
}

// ResponseEstimate is the modelled response of one query under a
// placement with serialized per-disk queues.
type ResponseEstimate struct {
	// Cost is the underlying single-disk I/O estimate.
	Cost QueryCost
	// DiskIOs is the number of I/O operations routed to each disk.
	DiskIOs []float64
	// BottleneckIOs is the largest per-disk queue — the I/O completion
	// bound on response time.
	BottleneckIOs float64
	// EffectiveIOs is the modelled critical-path I/O count:
	// max(BottleneckIOs, TotalIOs/Workers).
	EffectiveIOs float64
	// Response is EffectiveIOs worth of access plus the critical path's
	// share of page transfer.
	Response time.Duration
	// DisksUsed is the number of disks receiving any I/O.
	DisksUsed int
	// Imbalance is BottleneckIOs divided by the mean nonzero-disk load
	// (1.0 = perfectly balanced over the used disks).
	Imbalance float64
	// Nodes is the modelled node count (1 without a NodePlacement); with
	// more than one node, DiskIOs holds Nodes×Placement.Disks queues laid
	// out node-major (queue n*Disks+k is disk k of node n).
	Nodes int
	// NodesUsed is the number of nodes receiving any I/O.
	NodesUsed int
	// NodeIOs is the total I/O routed to each node (summed over the
	// node's disks); BottleneckNode is the node owning the bottleneck
	// disk queue.
	NodeIOs        []float64
	BottleneckNode int
}

// EstimateResponse models the response time of query q under the
// fragmentation, index configuration and disk placement: every relevant
// fragment contributes its (uniform) share of fact I/Os to its disk and
// the reads of its bitmap allocation units to the staggered (or
// co-located) bitmap disks, and the response is the bottleneck disk's
// serialized service time, bounded below by the worker-limited critical
// path.
func EstimateResponse(spec *frag.Spec, cfg frag.IndexConfig, q frag.Query, p Params, dp DiskParams) ResponseEstimate {
	var units []int // the allocation units one subquery reads
	if dp.PackedBitmaps {
		units = BitmapUnits(spec, cfg, q)
	} else {
		units = make([]int, spec.BitmapsReadForQuery(cfg, q))
		for k := range units {
			units[k] = k
		}
	}
	c := estimate(spec, cfg, q, p, len(units))
	pl := dp.Placement
	if pl.Disks < 1 {
		pl.Disks = 1
	}
	d := pl.Disks
	nodes := 1
	np := dp.NodePlacement
	if np.Disks > 1 {
		nodes = np.Disks
	}
	out := ResponseEstimate{
		Cost:    c,
		DiskIOs: make([]float64, nodes*d),
		Nodes:   nodes,
		NodeIOs: make([]float64, nodes),
	}
	if c.Fragments == 0 {
		return out
	}

	// Route each relevant fragment's I/O to its disks. The model assumes
	// (as cost.go does) uniform work per relevant fragment. With more
	// than one node, the fragment first routes to its owning node (the
	// same placement math one level up) and then to a disk within that
	// node: queue indices are node-major, so disks of different nodes
	// never share a queue.
	factPerFrag := float64(c.FactIOs) / float64(c.Fragments)
	bmIOsPerUnit := 0.0
	if len(units) > 0 {
		bmIOsPerUnit = float64(c.BitmapIOs) / float64(c.Fragments) / float64(len(units))
	}
	spec.ForEachFragment(q, func(id int64, _ []int) bool {
		base := 0
		if nodes > 1 {
			base = np.FactDisk(id) * d
		}
		out.DiskIOs[base+pl.FactDisk(id)] += factPerFrag
		for _, u := range units {
			out.DiskIOs[base+pl.BitmapDisk(id, u)] += bmIOsPerUnit
		}
		return true
	})

	// Degraded maps global queue indices (node*Disks+disk when two-tier).
	for k, f := range dp.Degraded {
		if k >= 0 && k < len(out.DiskIOs) && f > 1 {
			out.DiskIOs[k] *= f
		}
	}

	var used int
	var sum float64
	for i, l := range out.DiskIOs {
		out.NodeIOs[i/d] += l
		if l > 0 {
			used++
			sum += l
		}
		if l > out.BottleneckIOs {
			out.BottleneckIOs = l
			out.BottleneckNode = i / d
		}
	}
	out.DisksUsed = used
	for _, l := range out.NodeIOs {
		if l > 0 {
			out.NodesUsed++
		}
	}
	if used > 0 {
		out.Imbalance = out.BottleneckIOs / (sum / float64(used))
	}

	// The completion bound is the deepest per-node disk queue; the
	// worker bound applies per node (each node's pool only drains its own
	// shard), so it is the slowest node's total over that node's workers.
	out.EffectiveIOs = out.BottleneckIOs
	if dp.Workers > 0 {
		maxNode := 0.0
		for _, l := range out.NodeIOs {
			if l > maxNode {
				maxNode = l
			}
		}
		if lower := maxNode / float64(dp.Workers); lower > out.EffectiveIOs {
			out.EffectiveIOs = lower
		}
	}
	totalIOs := float64(c.TotalIOs())
	totalPages := float64(c.FactPages + c.BitmapPages)
	pagesPerIO := 1.0
	if totalIOs > 0 {
		pagesPerIO = totalPages / totalIOs
	}
	perIO := float64(dp.AccessTime) + pagesPerIO*float64(dp.TransferPerPage)
	out.Response = time.Duration(out.EffectiveIOs * perIO)
	return out
}

// DiskRanked is one disk-configuration candidate of AdviseDisks.
type DiskRanked struct {
	Placement alloc.Placement
	// Response is the weighted mean response over the query mix.
	Response time.Duration
	// Speedup is relative to the same mix on one disk.
	Speedup float64
	// Imbalance is the weighted mean load imbalance.
	Imbalance float64
}

// AdviseDisks extends the Section 4.7 guidelines to the physical layer:
// it models the query mix on every combination of the candidate disk
// counts with the round-robin and gap placement schemes (staggered bitmap
// placement, as Figure 2 recommends), and ranks the configurations by
// modelled response time — ties broken toward fewer disks, then the
// simpler scheme. The paper's prime-disk counter-measure emerges
// naturally: a disk count with a large gcd against the query's fragment
// stride gets a clustered, slow placement and ranks below a coprime one.
func AdviseDisks(spec *frag.Spec, cfg frag.IndexConfig, mix []WeightedQuery, p Params, dp DiskParams, diskCounts []int) []DiskRanked {
	base := weightedResponse(spec, cfg, mix, p, DiskParams{
		Placement:       alloc.Placement{Disks: 1, Scheme: alloc.RoundRobin, Staggered: dp.Placement.Staggered},
		AccessTime:      dp.AccessTime,
		TransferPerPage: dp.TransferPerPage,
		Workers:         dp.Workers,
	})
	var out []DiskRanked
	for _, d := range diskCounts {
		if d < 1 {
			continue
		}
		for _, scheme := range []alloc.Scheme{alloc.RoundRobin, alloc.GapRoundRobin} {
			cand := dp
			cand.Placement = alloc.Placement{Disks: d, Scheme: scheme, Staggered: dp.Placement.Staggered, Cluster: dp.Placement.Cluster}
			resp, imb := weightedResponseImbalance(spec, cfg, mix, p, cand)
			r := DiskRanked{Placement: cand.Placement, Response: resp, Imbalance: imb}
			if resp > 0 {
				r.Speedup = float64(base) / float64(resp)
			}
			out = append(out, r)
		}
	}
	sortDiskRanked(out)
	return out
}

func weightedResponse(spec *frag.Spec, cfg frag.IndexConfig, mix []WeightedQuery, p Params, dp DiskParams) time.Duration {
	resp, _ := weightedResponseImbalance(spec, cfg, mix, p, dp)
	return resp
}

func weightedResponseImbalance(spec *frag.Spec, cfg frag.IndexConfig, mix []WeightedQuery, p Params, dp DiskParams) (time.Duration, float64) {
	var resp, imb, wsum float64
	for _, wq := range mix {
		e := EstimateResponse(spec, cfg, wq.Query, p, dp)
		resp += wq.Weight * float64(e.Response)
		imb += wq.Weight * e.Imbalance
		wsum += wq.Weight
	}
	if wsum > 0 {
		imb /= wsum
	}
	return time.Duration(resp), imb
}

func sortDiskRanked(out []DiskRanked) {
	// Insertion sort: candidate lists are tiny and the order must be
	// deterministic (response, then fewer disks, then simpler scheme).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && diskRankedLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

func diskRankedLess(a, b DiskRanked) bool {
	if a.Response != b.Response {
		return a.Response < b.Response
	}
	if a.Placement.Disks != b.Placement.Disks {
		return a.Placement.Disks < b.Placement.Disks
	}
	return a.Placement.Scheme < b.Placement.Scheme
}
