package storage

import (
	"context"
	"errors"

	"repro/internal/bitmap"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
)

// IOStats counts the physical I/O a query execution performed — the
// observable counterpart of the paper's analytical Table 3.
type IOStats struct {
	FactPages int64
	FactIOs   int64
	// BitmapIOs counts reads of bitmap allocation units — one per unit a
	// subquery's plan touches, however many of its bitmap fragments share
	// the unit — and BitmapPages the pages of those units.
	BitmapPages int64
	BitmapIOs   int64
	RowsRead    int64
	// DeltaRows counts appended (not yet compacted) rows aggregated from
	// in-memory delta segments — rows served without any physical I/O.
	DeltaRows int64
	// PoolHits/PoolMisses/PoolBytes record how the buffer pool served the
	// logical reads above: hits cost no physical I/O (the Fact*/Bitmap*
	// counters stay logical — what the query asked for — while the DiskSet
	// counters stay physical — what actually reached a disk). PoolBytes is
	// the bytes served from the pool. All zero without a pool.
	PoolHits   int64
	PoolMisses int64
	PoolBytes  int64
}

// Add folds another execution's counters in.
func (st *IOStats) Add(o IOStats) {
	st.FactPages += o.FactPages
	st.FactIOs += o.FactIOs
	st.BitmapPages += o.BitmapPages
	st.BitmapIOs += o.BitmapIOs
	st.RowsRead += o.RowsRead
	st.DeltaRows += o.DeltaRows
	st.PoolHits += o.PoolHits
	st.PoolMisses += o.PoolMisses
	st.PoolBytes += o.PoolBytes
}

// Plus returns the sum of the two executions' counters.
func (st IOStats) Plus(o IOStats) IOStats {
	st.Add(o)
	return st
}

// notePool counts one read the buffer pool served (hit) or missed; a hit
// served n bytes.
func (st *IOStats) notePool(hit bool, n int) {
	if hit {
		st.PoolHits++
		st.PoolBytes += int64(n)
	} else {
		st.PoolMisses++
	}
}

// WithDeltaRows returns the counters credited with n delta rows.
func (st IOStats) WithDeltaRows(n int64) IOStats {
	st.DeltaRows += n
	return st
}

// Aggregate is the star query result over the stored measures — the
// shared kernel aggregate, so on-disk results are structurally identical
// to the in-memory engine's.
type Aggregate = kernel.Aggregate

// Executor runs star queries against an on-disk store following the
// processing model of Section 4.3: determine the relevant fragments, read
// the required bitmap fragments, AND them, read the fact pages containing
// hits with prefetch granules, and aggregate — one model, whether the
// file stores its bitmaps packed or WAH-compressed: BitmapFile.decodeInto
// makes either a bitset and nothing here asks which. The first step and
// everything after the last — the delta fold, the sum of the
// per-fragment partials and IOStats on the worker that ran them and of
// the workers' sums — are internal/kernel's drivers; the executor supplies the steps between
// (processFragment solo, sharedFold shared). Fragments are processed in
// parallel on the scheduler's pool, standing in for the Shared Disk
// processing nodes: concurrent executions — from this executor or any
// other attached to the same scheduler — multiplex onto its fixed
// workers (and one DiskSet when declustered).
type Executor struct {
	store   *Store
	bitmaps *BitmapFile
	sched   *exec.Scheduler
	// PrefetchFact is the fact read granule in pages (default 8).
	PrefetchFact int
	// AsyncPrefetch overlaps fact I/O with aggregation: the next granule
	// read is issued while the current granule is being unpacked and
	// aggregated (see prefetch.go). On by default via NewExecutor;
	// results are identical either way.
	AsyncPrefetch bool

	// The worker scratch of the solo and the shared fold, borrowed by
	// every call's fragment tasks. Compact hands the lists on to the next
	// epoch's executor, so they live as long as the store.
	solo   *exec.Scratch[*execScratch]
	shared *exec.Scratch[*sharedScratch]
}

// NewExecutor pairs a fact store with its bitmap file and attaches the
// pair to the scheduler every execution dispatches through. The
// executor owns no worker pool of its own, so a nil scheduler is an
// error.
func NewExecutor(store *Store, bitmaps *BitmapFile, sched *exec.Scheduler) (*Executor, error) {
	if sched == nil {
		return nil, errNilScheduler
	}
	e := &Executor{store: store, bitmaps: bitmaps, sched: sched, PrefetchFact: 8, AsyncPrefetch: true}
	e.solo = exec.NewScratch(newScratch)
	e.shared = exec.NewScratch(newSharedScratch(bitmaps.NumBitmaps()))
	return e, nil
}

var errNilScheduler = errors.New("storage: nil scheduler")

// planCap presizes a query's bitmap plan so that deriving it is one small
// allocation; a longer plan (the paper's index configuration can read
// 15 + 12 bit positions) just grows.
const planCap = 16

// dispatch describes where the executor's fragment tasks run: on its
// scheduler, placement-aware over the store's disk set (in task order on
// one disk).
func dispatch[S any](e *Executor, scratch *exec.Scratch[S]) kernel.Dispatch[S] {
	return kernel.Dispatch[S]{Star: e.store.star, Spec: e.store.spec, Sched: e.sched, Scratch: scratch,
		Disks: e.store.disks.Disks(), DiskOf: e.store}
}

// partial is what the fragment kernels fold one fragment into: its
// contribution to the query result and the I/O that took.
type partial struct {
	fp kernel.FragPartial
	st IOStats
}

// execScratch is the per-worker buffer set threaded through internal/exec.
// All slices and bitsets grow to the working-set size of the first
// fragments a worker touches and are reused for every later one, in
// every call and every epoch, making the fragment hot loop
// allocation-free once warm. Between tasks it holds no pointer into the
// epoch that last used it (granulePipe.finish, unitSet.release), so a
// retired epoch's files and directories stay collectable.
type execScratch struct {
	page  []byte  // fact prefetch-granule buffer
	units unitSet // bitmap units read for the current fragment
	part  partial // what the solo fold folds the current fragment into
	acc   rowAcc  // where the current fragment's rows accumulate

	hits *bitmap.Bitset    // running AND of predicate selections
	sel  *bitmap.Bitset    // current bitmap fragment read
	wah  bitmap.Compressed // a compressed file's words on their way into a Bitset

	// Async prefetch pipeline (see prefetch.go).
	gran   []granule     // the fragment's granule read list
	gpipe  granulePipe   // in-flight pipeline state
	free   chan []byte   // empty pipeline buffers (capacity 2, unpooled)
	tok    chan struct{} // read-ahead tokens (capacity 2, pooled)
	filled chan gread    // completed granule reads
}

func newScratch() *execScratch {
	return &execScratch{hits: bitmap.New(0), sel: bitmap.New(0)}
}

// Solo runs the query through kernel.Solo over the relevant fragments
// own selects (nil selects all): the scatter over the pool stops early
// when ctx is cancelled or any fragment fails, and is disk-aware on a
// declustered store (see dispatch). The executor's share is the bitmap
// plan, derived once per query, and processFragment. On the
// fragment-aligned fast path the group key comes from the fragment id,
// so grouping adds no per-row work and — because the stored tuples
// carry the dimension keys — never any extra I/O. Delta rows cost no
// physical I/O; they are reported in IOStats.DeltaRows.
func (e *Executor) Solo(ctx context.Context, q frag.Query, deltas kernel.Deltas, own func(int64) bool) (kernel.Out[IOStats], error) {
	return kernel.Solo(ctx, dispatch(e, e.solo), q, deltas, own, func() (kernel.SoloFold[*execScratch, IOStats], error) {
		plan, err := e.bitmaps.ix.Plan(make([]frag.BitmapOp, 0, planCap), q)
		return func(sc *execScratch, id int64, _ frag.Query, slot kernel.Slot) (kernel.FragPartial, IOStats, error) {
			p := &sc.part
			*p = partial{fp: slot.FP}
			err := e.processFragment(ctx, id, plan, p, sc, slot.Base, slot.PerRow)
			return p.fp, p.st, err
		}, err
	})
}

// ExecuteGroupedDeltas runs the query and returns the full result: the
// grand total plus, when the query has a GroupBy, the per-group rows in
// the deterministic kernel order. The pinned delta snapshot is folded
// into every fragment's partial — on-disk base rows first, then the
// in-memory delta segments in seal order — so base+delta results are
// byte-identical to a store rebuilt from scratch with the same rows.
func (e *Executor) ExecuteGroupedDeltas(ctx context.Context, q frag.Query, deltas kernel.Deltas) (kernel.Result, IOStats, error) {
	o, err := e.Solo(ctx, q, deltas, nil)
	return o.Gr.Result(o.Part), o.St, err
}

// ExecutePartialDeltas runs the query over only the relevant fragments
// selected by own (nil selects all) and returns the un-flattened partial
// — the fragment-range contribution one cluster node serves from its
// shard of the store. Partials of a fragment-disjoint node partition
// merge commutatively; the coordinator flattens the merged accumulator
// through Grouper.Rows for results byte-identical to a single store
// holding the union of the rows.
func (e *Executor) ExecutePartialDeltas(ctx context.Context, q frag.Query, deltas kernel.Deltas, own func(int64) bool) (kernel.FragPartial, IOStats, error) {
	o, err := e.Solo(ctx, q, deltas, own)
	return o.Part, o.St, err
}

// processFragment evaluates the query's bitmap plan within one fragment
// (steps 2-4 of Section 4.3): every row when the plan is empty, otherwise
// the plan's bitmaps ANDed into sc.hits and the granules holding hits.
func (e *Executor) processFragment(ctx context.Context, id int64, plan []frag.BitmapOp, p *partial, sc *execScratch, base uint64, perRow []kernel.RowLevel) error {
	loc, ok := e.store.Loc(id)
	if !ok {
		return nil // no rows at this density
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sc.acc = rowAcc{p: p, base: base, perRow: perRow, rows: int(loc.Rows)}
	var hits *bitmap.Bitset // IOC1: every page of the fragment is read with full prefetch
	if len(plan) > 0 {
		if err := e.loadOperands(ctx, id, plan, &p.st, sc); err != nil {
			return err
		}
		hits = sc.hits
	}
	return e.readRows(ctx, id, loc, hits, sc)
}

// loadOperands is the bitmap access of Section 4.3's step 2: it reads
// each allocation unit the plan touches exactly once — one bitmap I/O
// per unit, counted into st — decodes every operand out of the held unit
// (BitmapFile.decodeInto) and ANDs it into sc.hits, verbatim or
// complemented, as it arrives.
func (e *Executor) loadOperands(ctx context.Context, id int64, plan []frag.BitmapOp, st *IOStats, sc *execScratch) error {
	us := &sc.units
	if err := us.begin(e.bitmaps, id); err != nil {
		return err
	}
	defer us.release()
	rows := int(us.blk.rows)
	for i, op := range plan {
		payload, sl, fresh, err := us.payload(ctx, int(op.Index), st)
		if err != nil {
			return err
		}
		if fresh {
			st.BitmapIOs++
			st.BitmapPages += int64(sl.Pages)
		}
		if i == 0 {
			// The first bitmap initialises the running selection directly.
			e.bitmaps.decodeInto(sc.hits, &sc.wah, payload, rows)
			if op.Complement {
				sc.hits.Not()
			}
			continue
		}
		e.bitmaps.decodeInto(sc.sel, &sc.wah, payload, rows)
		if op.Complement {
			sc.hits.AndNot(sc.sel)
		} else {
			sc.hits.And(sc.sel)
		}
	}
	return nil
}

// readRows reads the prefetch granules holding a row hits selects —
// every granule when hits is nil, only those with a hit otherwise (the
// prefetch-efficiency effect of Section 4.5) — with the next granule
// read in flight while the current one aggregates, and folds each
// granule's selected rows (foldGranule).
func (e *Executor) readRows(ctx context.Context, id int64, loc FragLoc, hits *bitmap.Bitset, sc *execScratch) error {
	store := e.store
	sc.gran = appendGranules(sc.gran[:0], hits, int(loc.Pages), e.PrefetchFact, store.tpp)
	return e.forEachGranule(ctx, sc, &sc.acc.p.st, id, sc.gran, func(g granule, buf []byte) {
		store.foldGranule(&sc.acc, buf, g, hits)
	})
}
