package simpad

import (
	"fmt"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/des"
	"repro/internal/frag"
)

// System is one simulated Shared Disk PDBS instance: p processing nodes and
// d disks shared by all nodes, a contention-free network, and LRU buffer
// pools for fact and bitmap pages.
type System struct {
	cfg       Config
	icfg      frag.IndexConfig
	placement alloc.Placement

	sim   *des.Sim
	disks []*disk
	nodes []*node
	// Buffer pools. The paper keeps separate buffers for tables and
	// indices; we model one shared pool per kind (Shared Disk nodes reach
	// all disks, and single-user runs make per-node pools indistinguishable).
	factBuf   *lruBuffer
	bitmapBuf *lruBuffer

	rng *rand.Rand
}

// node is one processing node: a single CPU server plus its scheduling
// state.
type node struct {
	cpu    *des.Resource
	active int // currently assigned subqueries (plus 1 if coordinating)
}

// NewSystem builds a simulated PDBS for the given configuration, index
// configuration and placement. Seed drives query parameter randomisation
// (coordinator choice); service times themselves are deterministic.
func NewSystem(cfg Config, icfg frag.IndexConfig, placement alloc.Placement, seed int64) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if placement.Disks != cfg.Disks {
		return nil, fmt.Errorf("simpad: placement has %d disks, config %d", placement.Disks, cfg.Disks)
	}
	s := &System{
		cfg:       cfg,
		icfg:      icfg,
		placement: placement,
		sim:       des.NewSim(),
		factBuf:   newLRUBuffer(cfg.BufferFactPages),
		bitmapBuf: newLRUBuffer(cfg.BufferBitmapPages),
		rng:       rand.New(rand.NewSource(seed)),
	}
	for i := 0; i < cfg.Disks; i++ {
		s.disks = append(s.disks, newDisk(s.sim, fmt.Sprintf("disk%d", i), &s.cfg))
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.nodes = append(s.nodes, &node{cpu: des.NewResource(s.sim, fmt.Sprintf("node%d", i), 1)})
	}
	return s, nil
}

// Result summarises one simulated query execution.
type Result struct {
	// ResponseTime is the query's response time in seconds.
	ResponseTime float64
	// Subqueries is the number of subqueries executed.
	Subqueries int
	// DiskOps and DiskPages are totals across all disks for this query.
	DiskOps, DiskPages int64
	// MeanDiskUtil is the mean disk utilisation over the query's lifetime.
	MeanDiskUtil float64
	// BufferHitRate is the combined buffer hit rate.
	BufferHitRate float64
	// Events is the number of simulation events executed.
	Events int64
}

// Run executes the plans sequentially (single-user mode, Section 5) and
// returns one Result per plan: one stream of RunStreams.
func (s *System) Run(plans []*Plan) []Result {
	return s.RunStreams([][]*Plan{plans})[0]
}

// RunStreams models a closed multi-user workload: each stream issues its
// queries sequentially, all streams run concurrently (the multi-user mode
// the paper defers to future work). It returns one result list per stream.
func (s *System) RunStreams(streams [][]*Plan) [][]Result {
	results := make([][]Result, len(streams))
	for i := range streams {
		results[i] = make([]Result, len(streams[i]))
	}
	var issue func(stream, i int)
	issue = func(stream, i int) {
		if i == len(streams[stream]) {
			return
		}
		s.runQuery(streams[stream][i], func(r Result) {
			results[stream][i] = r
			issue(stream, i+1)
		})
	}
	for i := range streams {
		issue(i, 0)
	}
	s.sim.Run()
	return results
}

// ownerOf returns the node owning a fragment's disk (Shared Nothing).
func (s *System) ownerOf(fragID int64) int {
	return s.placement.FactDisk(fragID) * s.cfg.Nodes / s.cfg.Disks
}

// nodeDiskRange returns the half-open disk range owned by a node under
// Shared Nothing.
func (s *System) nodeDiskRange(node int) (lo, hi int) {
	lo = node * s.cfg.Disks / s.cfg.Nodes
	hi = (node + 1) * s.cfg.Disks / s.cfg.Nodes
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi
}

// bitmapDisk places a bitmap fragment's disk honouring the architecture:
// under Shared Nothing the bitmap fragments must live on the owning
// node's disks (footnote 3), shrinking the staggering range.
func (s *System) bitmapDisk(fragID int64, b int) int {
	if s.cfg.Architecture == SharedDisk {
		return s.placement.BitmapDisk(fragID, b)
	}
	factDisk := s.placement.FactDisk(fragID)
	if !s.placement.Staggered {
		return factDisk
	}
	lo, hi := s.nodeDiskRange(s.ownerOf(fragID))
	span := hi - lo
	return lo + (factDisk-lo+1+b)%span
}

// queryRun carries the scheduling state of one in-flight query.
type queryRun struct {
	sys    *System
	plan   *Plan
	layout *layout
	coord  int
	// next is the next task-list index to dispatch (Shared Disk).
	next int
	// perNode holds per-owner task queues (Shared Nothing only).
	perNode   [][]int
	completed int
	inflight  int
	start     des.Time
	opsBase   int64
	pagesBase int64
	done      func(Result)
}

// runQuery simulates one star query: a randomly selected coordinator plans
// the query, dispatches subqueries round-robin with at most t per node
// (coordination itself occupying one task slot), gathers partial
// aggregates, and terminates (Section 5).
func (s *System) runQuery(plan *Plan, done func(Result)) {
	qr := &queryRun{
		sys:    s,
		plan:   plan,
		layout: newLayout(plan.Spec, s.icfg, s.placement, s.cfg.DiskCapacityPages),
		coord:  s.rng.Intn(s.cfg.Nodes),
		start:  s.sim.Now(),
		done:   done,
	}
	for _, d := range s.disks {
		qr.opsBase += d.ops
		qr.pagesBase += d.pages
	}
	if s.cfg.Architecture == SharedNothing {
		qr.perNode = make([][]int, s.cfg.Nodes)
		for ti, fragID := range plan.FragIDs {
			owner := s.ownerOf(fragID)
			qr.perNode[owner] = append(qr.perNode[owner], ti)
		}
	}
	coordNode := s.nodes[qr.coord]
	coordNode.active++ // coordination counts as one task (Section 5)
	coordNode.cpu.Use(des.Time(s.cfg.cpuSeconds(float64(s.cfg.InstrInitQuery))), func() {
		qr.dispatch()
	})
}

// dispatch assigns tasks from the task list to nodes until every node is
// at capacity or the list is exhausted. Under Shared Disk, assignment is
// round-robin starting after the coordinator; under Shared Nothing, each
// task can only run on the node owning its fragment's disk. The
// coordinator's own capacity is effectively t-1 because coordination
// occupies one of its task slots.
func (qr *queryRun) dispatch() {
	if qr.sys.cfg.Architecture == SharedNothing {
		qr.dispatchSharedNothing()
		return
	}
	n := len(qr.sys.nodes)
	cap := qr.sys.cfg.TasksPerNode
	for qr.next < len(qr.plan.FragIDs) {
		if lim := qr.sys.cfg.MaxConcurrentSubqueries; lim > 0 && qr.inflight >= lim {
			return
		}
		start := (qr.coord + 1 + qr.next) % n
		assigned := false
		for k := 0; k < n; k++ {
			cand := (start + k) % n
			if qr.sys.nodes[cand].active < cap {
				qr.assign(cand, qr.next)
				qr.next++
				assigned = true
				break
			}
		}
		if !assigned {
			// Deadlock guard for degenerate configs (one node, t=1): if no
			// subquery is in flight, let the coordinator exceed its slot.
			if qr.inflight == 0 {
				qr.assign(qr.coord, qr.next)
				qr.next++
				continue
			}
			return
		}
	}
}

// dispatchSharedNothing drains each node's own task queue up to capacity.
func (qr *queryRun) dispatchSharedNothing() {
	cap := qr.sys.cfg.TasksPerNode
	for nodeIdx := range qr.sys.nodes {
		q := qr.perNode[nodeIdx]
		for len(q) > 0 && qr.sys.nodes[nodeIdx].active < cap {
			if lim := qr.sys.cfg.MaxConcurrentSubqueries; lim > 0 && qr.inflight >= lim {
				qr.perNode[nodeIdx] = q
				return
			}
			ti := q[0]
			q = q[1:]
			qr.assign(nodeIdx, ti)
		}
		qr.perNode[nodeIdx] = q
	}
	// Deadlock guard: a node whose whole capacity is the coordination slot.
	if qr.inflight == 0 {
		for nodeIdx := range qr.sys.nodes {
			if q := qr.perNode[nodeIdx]; len(q) > 0 {
				qr.perNode[nodeIdx] = q[1:]
				qr.assign(nodeIdx, q[0])
				return
			}
		}
	}
}

// assign sends a task-assignment message to the node and starts the
// subquery there.
func (qr *queryRun) assign(nodeIdx int, taskIdx int) {
	s := qr.sys
	nd := s.nodes[nodeIdx]
	nd.active++
	qr.inflight++
	instr := s.cfg.msgInstr(s.cfg.SmallMsgBytes)
	coordCPU := s.nodes[qr.coord].cpu
	// Sender-side message handling on the coordinator, network transfer,
	// receiver-side handling, then the subquery itself.
	coordCPU.Use(des.Time(s.cfg.cpuSeconds(instr)), func() {
		s.sim.Schedule(des.Time(s.cfg.netSeconds(s.cfg.SmallMsgBytes)), func() {
			nd.cpu.Use(des.Time(s.cfg.cpuSeconds(instr)), func() {
				qr.subquery(nodeIdx, taskIdx)
			})
		})
	})
}

// subquery executes one subquery (Section 4.3, step 4): read and process
// the task's bitmap fragments, then iterate prefetch-granule fact reads
// with per-page and per-hit CPU processing, and report back. A task covers
// TaskCount(taskIdx) clustered fragments.
func (qr *queryRun) subquery(nodeIdx int, taskIdx int) {
	s := qr.sys
	nd := s.nodes[nodeIdx]
	plan := qr.plan

	initT := des.Time(s.cfg.cpuSeconds(float64(s.cfg.InstrInitSubquery)))
	nd.cpu.Use(initT, func() {
		if plan.BitmapsPerFrag > 0 {
			qr.readBitmaps(nodeIdx, taskIdx, func() {
				qr.factPhase(nodeIdx, taskIdx)
			})
		} else {
			qr.factPhase(nodeIdx, taskIdx)
		}
	})
}

// readBitmaps reads the task's bitmap fragments — concurrently when
// ParallelBitmapIO is set (the staggered allocation places them on distinct
// disks), else one after another — and charges bitmap page processing CPU.
func (qr *queryRun) readBitmaps(nodeIdx int, taskIdx int, done func()) {
	s := qr.sys
	nd := s.nodes[nodeIdx]
	plan := qr.plan
	fragID := plan.FragIDs[taskIdx]
	count := plan.TaskCount(taskIdx)
	k := plan.BitmapsPerFrag
	ops := plan.bitmapOps(s.cfg.PrefetchBitmap, count)
	pagesTotal := 0
	for _, p := range ops {
		pagesTotal += p
	}
	procPerPage := s.cfg.cpuSeconds(float64(s.cfg.InstrProcessBitmapPage))

	remaining := k
	finishOne := func() {
		remaining--
		if remaining == 0 {
			done()
		}
	}

	// readFrag reads bitmap b's fragment(s) for this task (all its
	// prefetch ops in sequence), then charges CPU for its pages.
	readFrag := func(b int, after func()) {
		dk := s.disks[s.bitmapDisk(fragID, b)]
		pos := qr.layout.bitmapPos(fragID, b)
		var step func(op int)
		step = func(op int) {
			if op == len(ops) {
				cpu := des.Time(procPerPage * float64(pagesTotal))
				nd.cpu.Use(cpu, after)
				return
			}
			key := bufferKey{bitmap: true, frag: fragID, index: b, granule: op}
			if s.bitmapBuf.lookup(key) {
				step(op + 1)
				return
			}
			dk.read(pos, ops[op], func() {
				s.bitmapBuf.insert(key, ops[op])
				step(op + 1)
			})
		}
		step(0)
	}

	if s.cfg.ParallelBitmapIO {
		for b := 0; b < k; b++ {
			readFrag(b, finishOne)
		}
		return
	}
	var seq func(b int)
	seq = func(b int) {
		if b == k {
			done()
			return
		}
		readFrag(b, func() { seq(b + 1) })
	}
	seq(0)
}

// factPhase iterates steps 4a/4b of Section 4.3 over the task's fact I/O
// operations: read a granule, extract and aggregate its hits, proceed.
func (qr *queryRun) factPhase(nodeIdx int, taskIdx int) {
	s := qr.sys
	nd := s.nodes[nodeIdx]
	plan := qr.plan
	fragID := plan.FragIDs[taskIdx]
	count := plan.TaskCount(taskIdx)
	dk := s.disks[s.placement.FactDisk(fragID)]

	totalOps := plan.FactOpsPerFrag * count
	hitsPerOp := plan.HitsPerFrag * float64(count) / float64(totalOps)
	rowInstr := float64(s.cfg.InstrExtractRow + s.cfg.InstrAggregateRow)

	var step func(op int)
	step = func(op int) {
		if op == totalOps {
			qr.finishSubquery(nodeIdx)
			return
		}
		pages := plan.factOpPages(op % plan.FactOpsPerFrag)
		process := func() {
			cpu := float64(pages)*float64(s.cfg.InstrReadPage) + hitsPerOp*rowInstr
			nd.cpu.Use(des.Time(s.cfg.cpuSeconds(cpu)), func() { step(op + 1) })
		}
		key := bufferKey{frag: fragID, index: op}
		if s.factBuf.lookup(key) {
			process()
			return
		}
		pos := qr.layout.factPos(fragID, plan.factOpOffset(op%plan.FactOpsPerFrag))
		dk.read(pos, pages, func() {
			s.factBuf.insert(key, pages)
			process()
		})
	}
	step(0)
}

// finishSubquery terminates the subquery and sends the partial aggregate to
// the coordinator, which then either assigns more work or completes the
// query.
func (qr *queryRun) finishSubquery(nodeIdx int) {
	s := qr.sys
	nd := s.nodes[nodeIdx]
	termT := des.Time(s.cfg.cpuSeconds(float64(s.cfg.InstrTerminateSubquery)))
	instr := s.cfg.msgInstr(s.cfg.SmallMsgBytes)
	nd.cpu.Use(termT, func() {
		nd.cpu.Use(des.Time(s.cfg.cpuSeconds(instr)), func() {
			s.sim.Schedule(des.Time(s.cfg.netSeconds(s.cfg.SmallMsgBytes)), func() {
				s.nodes[qr.coord].cpu.Use(des.Time(s.cfg.cpuSeconds(instr)), func() {
					nd.active--
					qr.inflight--
					qr.completed++
					if qr.completed == qr.plan.Tasks() {
						qr.finishQuery()
						return
					}
					qr.dispatch()
				})
			})
		})
	})
}

// finishQuery gathers the overall aggregate and reports the result.
func (qr *queryRun) finishQuery() {
	s := qr.sys
	coordNode := s.nodes[qr.coord]
	coordNode.cpu.Use(des.Time(s.cfg.cpuSeconds(float64(s.cfg.InstrTerminateQuery))), func() {
		coordNode.active--
		var ops, pages int64
		var util float64
		for _, d := range s.disks {
			ops += d.ops
			pages += d.pages
			util += d.utilization()
		}
		qr.done(Result{
			ResponseTime:  float64(s.sim.Now() - qr.start),
			Subqueries:    qr.plan.Tasks(),
			DiskOps:       ops - qr.opsBase,
			DiskPages:     pages - qr.pagesBase,
			MeanDiskUtil:  util / float64(len(s.disks)),
			BufferHitRate: combinedHitRate(s.factBuf, s.bitmapBuf),
			Events:        s.sim.EventsRun(),
		})
	})
}

func combinedHitRate(bufs ...*lruBuffer) float64 {
	var h, m int64
	for _, b := range bufs {
		h += b.hits
		m += b.misses
	}
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// MeanResponseTime averages the response times of results.
func MeanResponseTime(rs []Result) float64 {
	if len(rs) == 0 {
		return 0
	}
	var t float64
	for _, r := range rs {
		t += r.ResponseTime
	}
	return t / float64(len(rs))
}
