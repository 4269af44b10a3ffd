package storage

import (
	"context"
	"errors"
	"slices"

	"repro/internal/bitmap"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
)

// IOStats counts the physical I/O a query execution performed — the
// observable counterpart of the paper's analytical Table 3. The delta
// rows, which cost no I/O, are counted once, in kernel.Out.DeltaRows.
type IOStats struct {
	FactPages int64
	FactIOs   int64
	// BitmapIOs counts reads of bitmap allocation units — one per unit a
	// subquery's plan touches, however many of its bitmap fragments share
	// the unit — and BitmapPages the pages of those units.
	BitmapPages int64
	BitmapIOs   int64
	RowsRead    int64
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
// the workers' sums — are internal/kernel's driver; the executor supplies
// the steps between (fold). Fragments are processed in
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

	// The worker scratch of the fragment fold, borrowed by every call's
	// tasks. Compact hands the list on to the next epoch's executor, so it
	// lives as long as the store.
	scratch *exec.Scratch[*scratch]
}

// NewExecutor pairs a fact store with its bitmap file and attaches the
// pair to the scheduler every execution dispatches through. The
// executor owns no worker pool of its own, so a nil scheduler is an
// error.
func NewExecutor(store *Store, bitmaps *BitmapFile, sched *exec.Scheduler) (*Executor, error) {
	if sched == nil {
		return nil, errNilScheduler
	}
	e := &Executor{store: store, bitmaps: bitmaps, sched: sched, PrefetchFact: 8}
	e.scratch = exec.NewScratch(newScratch(bitmaps.NumBitmaps(), len(store.star.Dims)))
	return e, nil
}

var errNilScheduler = errors.New("storage: nil scheduler")

// scratch is a worker's buffer set threaded through internal/exec. Its
// buffers grow to the working-set size of the first fragments a worker
// touches and are reused for every later one, in every call and every
// epoch, making the fragment hot loop allocation-free once warm: the
// fragment I/O buffers and the task's state — its members and slots, the
// bitmap fragments decoded for the duration of the task (so batch-mates
// selecting the same bitmap reuse it instead of reading and decoding it
// again), per-slot selection masks, a fact page's key column view, the
// granule ownership table and the union stream's counters. Between
// tasks it holds no pointer into the epoch that last used it
// (unitSet.release, the page view cleared; a granule's pool pin ends
// with its fold), so a retired epoch's files and directories stay
// collectable.
type scratch struct {
	kernel.SharedTask[IOStats]
	page    []byte            // fact prefetch-granule buffer of an unpooled read
	units   unitSet           // bitmap units read for the current fragment
	wah     bitmap.Compressed // a compressed file's words on their way into a Bitset
	gran    []granule         // one member's granule read list
	byIndex []*bitmap.Bitset  // the task's decoded bitmaps by stored index (nil = not yet)
	entries []*bitmap.Bitset  // decoded-bitmap freelist, reused across tasks
	used    int
	masks   []*bitmap.Bitset // mask buffers by slot
	sel     []*bitmap.Bitset // the task's masks by slot (nil = every row)
	dims    [][]uint16       // a fact page's key columns (Store.pageCols)
	payer   []int32          // granule index -> first-paying local slot (-1 = unread)
	ugran   []granule
	phys    IOStats // the union stream's physical counters
}

// newScratch returns the builder of scratch for a file of bitmaps stored
// bitmaps per fragment over a schema of dims dimensions — all it needs of
// the executor, which the list outlives.
func newScratch(bitmaps, dims int) func() *scratch {
	return func() *scratch {
		return &scratch{byIndex: make([]*bitmap.Bitset, bitmaps), dims: make([][]uint16, dims)}
	}
}

// reset clears the per-task bitmap cache, recycling its entries.
func (sc *scratch) reset() {
	clear(sc.byIndex)
	sc.used = 0
}

func (sc *scratch) entry() *bitmap.Bitset {
	if sc.used == len(sc.entries) {
		sc.entries = append(sc.entries, bitmap.New(0))
	}
	sc.used++
	return sc.entries[sc.used-1]
}

// mask returns the k-th per-slot selection mask, growing the pool.
func (sc *scratch) mask(k int) *bitmap.Bitset {
	for len(sc.masks) <= k {
		sc.masks = append(sc.masks, bitmap.New(0))
	}
	return sc.masks[k]
}

// operand returns stored bitmap di of the task's fragment, decoded: the
// first slot needing it decodes it out of its unit, later slots get the
// cached bitmap back. fresh reports that this call paid the unit read
// (attributed to st); a unit the task already holds, or a bitmap it
// already decoded, costs nothing.
func (sc *scratch) operand(ctx context.Context, e *Executor, di int, st *IOStats) (bs *bitmap.Bitset, sl frag.BitmapSlot, fresh bool, err error) {
	us := &sc.units
	if bs = sc.byIndex[di]; bs != nil {
		return bs, us.blk.slots[di], false, nil
	}
	payload, sl, fresh, err := us.payload(ctx, di, st)
	if err != nil {
		return nil, sl, false, err
	}
	bs = sc.entry()
	e.bitmaps.decodeInto(bs, &sc.wah, payload, int(us.blk.rows))
	sc.byIndex[di] = bs
	return bs, sl, fresh, nil
}

// selectInto computes one slot's selection mask for the fragment from its
// bitmap plan via the task's unit set and bitmap cache: the bitmap
// access of Section 4.3's step 2, the plan's operands ANDed, verbatim or
// complemented. It returns nil when the plan is empty (every row is
// relevant — the whole fragment is read); an empty mask means no row
// matches. Logical bitmap counters land on st as the query alone counts
// them — one I/O per distinct unit of the plan, whose operands are
// adjacent because the plan is ordered by stored index; unit reads a
// batch-mate already paid land on sh.
func (e *Executor) selectInto(ctx context.Context, plan []frag.BitmapOp, mask *bitmap.Bitset, st *IOStats, sh *kernel.SharedScanStats, sc *scratch) (*bitmap.Bitset, error) {
	if len(plan) == 0 {
		return nil, nil // no bitmap access: every fragment row is relevant
	}
	unit := int32(-1)
	for i, op := range plan {
		bs, sl, fresh, err := sc.operand(ctx, e, int(op.Index), st)
		if err != nil {
			return nil, err
		}
		if sl.Unit != unit {
			unit = sl.Unit
			st.BitmapIOs++
			st.BitmapPages += int64(sl.Pages)
			if !fresh {
				sh.PhysReadsSaved++
			}
		}
		switch {
		case i == 0:
			mask.CopyFrom(bs)
			if op.Complement {
				mask.Not()
			}
		case op.Complement:
			mask.AndNot(bs)
		default:
			mask.And(bs)
		}
	}
	return mask, nil
}

// Shared executes K queries against one pinned snapshot through
// kernel.Shared in a single pass — a lone query is a batch of one — over
// the relevant fragments own selects (nil selects all): the union of the
// queries' relevant fragments is dispatched as one task set on the
// executor's scheduler, placement-aware over the store's disk set (in
// task order on one disk), and each fragment task performs one physical
// bitmap selection + granule read stream that feeds every query needing
// the fragment (fold). The executor's share is each member's bitmap
// plan, derived once per query, and the fold. Per-query outcomes —
// including the logical I/O statistics — are byte-identical to each
// query run alone against the same snapshot; only the physical read
// counts shrink, and Out.Shared says by how much. On the
// fragment-aligned fast path the group key comes from the fragment id,
// so grouping adds no per-row work and — because the stored tuples carry
// the dimension keys — never any extra I/O. Delta rows cost no physical
// I/O; they are reported in Out.DeltaRows. A batch-wide failure (an
// I/O error, cancellation) fails the whole call, so every caller can
// retry alone.
func (e *Executor) Shared(ctx context.Context, qs []frag.Query, deltas kernel.Deltas, own func(int64) bool) (kernel.Outs[IOStats], error) {
	d := kernel.Dispatch[*scratch]{Star: e.store.star, Spec: e.store.spec, Sched: e.sched, Scratch: e.scratch,
		Disks: e.store.disks.Disks(), DiskOf: e.store}
	return kernel.Shared(ctx, d, qs, deltas, own, func(f *fold, batch []kernel.BatchQuery) error {
		f.e, f.ctx = e, ctx
		for i := range batch {
			if m := &batch[i]; m.Err == nil {
				var err error
				if m.Plan, err = e.bitmaps.ix.Plan(m.Plan[:0], frag.Query{Preds: m.Preds}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// fold is the executor's fold bound to one Shared call (kernel.SharedFold).
type fold struct {
	e   *Executor
	ctx context.Context
}

// Fold is the fragment task over the batch's bitmap plans, steps 2-4 of
// Section 4.3: every member's mask, the granule payer table, and one
// union granule stream — the granules holding a hit of some member, each
// read on this worker and folded before the next is read — over which
// each member's own rows are folded into its slot with the column
// kernel, a page's column view at a time (Store.fold).
func (f *fold) Fold(sc *scratch, id int64, batch []kernel.BatchQuery, ms []kernel.Member[IOStats], slots []kernel.Slot) error {
	e, ctx := f.e, f.ctx
	store, g := e.store, e.PrefetchFact
	sc.reset()
	loc, ok := store.Loc(id)
	if !ok {
		return nil // no rows at this density
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	us := &sc.units
	if err := us.begin(e.bitmaps, id); err != nil {
		return err
	}
	sc.sel = sc.sel[:0]
	for k := range ms {
		m := &ms[k]
		mask, err := e.selectInto(ctx, batch[m.Query].Plan, sc.mask(k), &m.St, &m.Shared, sc)
		if err != nil {
			us.release()
			return err
		}
		sc.sel = append(sc.sel, mask)
		if len(ms) >= 2 {
			m.Shared.FragmentsShared = 1
		}
	}
	us.release()

	// Per-slot logical granule lists (every granule of the fragment
	// without a mask, only those with a hit otherwise: the
	// prefetch-efficiency effect of Section 4.5) drive both the logical Fact counters and the union read list;
	// the first slot listing a granule pays its physical read, later
	// slots record the saving.
	pages := int(loc.Pages)
	granules := (pages + g - 1) / g
	sc.payer = slices.Grow(sc.payer[:0], granules)[:granules]
	for i := range sc.payer {
		sc.payer[i] = -1
	}
	for k, mask := range sc.sel {
		m := &ms[k]
		sc.gran = appendGranules(sc.gran[:0], mask, pages, g, store.tpp)
		for _, gr := range sc.gran {
			m.St.FactIOs++
			m.St.FactPages += int64(gr.count)
			if gi := int(gr.start) / g; sc.payer[gi] < 0 {
				sc.payer[gi] = int32(k)
			} else {
				m.Shared.PhysReadsSaved++
			}
		}
	}
	sc.ugran = sc.ugran[:0]
	for gi, k := range sc.payer {
		if k >= 0 {
			sc.ugran = append(sc.ugran, granuleAt(gi, g, pages))
		}
	}

	// One physical stream over the union granules feeds every slot.
	// Its Fact counters are the physical read set (the per-slot
	// logical counts are already accounted above); its pool counters
	// are credited to the granule's paying slot.
	sc.phys = IOStats{}
	var paid IOStats
	err := e.forEachGranule(ctx, sc, &sc.phys, id, sc.ugran, func(gr granule, buf []byte) {
		payer := &ms[sc.payer[int(gr.start)/g]].St
		payer.PoolHits += sc.phys.PoolHits - paid.PoolHits
		payer.PoolMisses += sc.phys.PoolMisses - paid.PoolMisses
		payer.PoolBytes += sc.phys.PoolBytes - paid.PoolBytes
		paid = sc.phys
		// Each slot folds the granule's rows its mask selects, as it
		// would alone.
		lo := int(gr.start) * store.tpp
		hi := min(lo+int(gr.count)*store.tpp, int(loc.Rows))
		for k, mask := range sc.sel {
			store.fold(&slots[k], sc.dims, buf, int(gr.start), int(loc.Rows), lo, hi, mask)
		}
	})
	clear(sc.dims)
	if err != nil {
		return err
	}
	for k := range ms {
		ms[k].St.RowsRead += slots[k].Rows
	}
	return nil
}

// ExecuteGroupedDeltas runs the query and returns the full result: the
// grand total plus, when the query has a GroupBy, the per-group rows in
// the deterministic kernel order. The pinned delta snapshot is folded
// into every fragment's partial — on-disk base rows first, then the
// in-memory delta segments in seal order — so base+delta results are
// byte-identical to a store rebuilt from scratch with the same rows.
func (e *Executor) ExecuteGroupedDeltas(ctx context.Context, q frag.Query, deltas kernel.Deltas) (kernel.Result, IOStats, error) {
	o, err := kernel.Lone(e.Shared(ctx, []frag.Query{q}, deltas, nil))
	return o.Gr.Result(o.Part), o.St, err
}
