package storage

import (
	"context"
	"slices"

	"repro/internal/bitmap"
	"repro/internal/frag"
	"repro/internal/kernel"
)

// sharedScratch extends the per-worker executor scratch with the shared
// path's per-task state: the task's members and slots, the bitmap
// fragments decoded for the duration of the task (so batch-mates
// selecting the same bitmap reuse it instead of reading and decoding it
// again), per-slot selection masks, partials and row accumulators, the
// granule ownership table and the union stream's counters.
type sharedScratch struct {
	kernel.SharedTask[IOStats]
	sc      *execScratch
	byIndex []*bitmap.Bitset // the task's decoded bitmaps by stored index (nil = not yet)
	entries []*bitmap.Bitset // decoded-bitmap freelist, reused across tasks
	used    int
	masks   []*bitmap.Bitset // mask buffers by slot
	sel     []*bitmap.Bitset // the task's masks by slot (nil = every row)
	parts   []partial        // the task's partials by slot
	accs    []rowAcc         // where each slot's rows accumulate
	payer   []int32          // granule index -> first-paying local slot (-1 = unread)
	ugran   []granule
	phys    IOStats // the union stream's physical counters
}

// newSharedScratch returns the builder of shared scratch for a file of
// bitmaps stored bitmaps per fragment — all it needs of the executor,
// which the lists outlive.
func newSharedScratch(bitmaps int) func() *sharedScratch {
	return func() *sharedScratch {
		return &sharedScratch{sc: newScratch(), byIndex: make([]*bitmap.Bitset, bitmaps)}
	}
}

// reset clears the per-task bitmap cache, recycling its entries.
func (sc *sharedScratch) reset() {
	clear(sc.byIndex)
	sc.used = 0
}

func (sc *sharedScratch) entry() *bitmap.Bitset {
	if sc.used == len(sc.entries) {
		sc.entries = append(sc.entries, bitmap.New(0))
	}
	sc.used++
	return sc.entries[sc.used-1]
}

// mask returns the k-th per-slot selection mask, growing the pool.
func (sc *sharedScratch) mask(k int) *bitmap.Bitset {
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
func (sc *sharedScratch) operand(ctx context.Context, e *Executor, di int, st *IOStats) (bs *bitmap.Bitset, sl frag.BitmapSlot, fresh bool, err error) {
	us := &sc.sc.units
	if bs = sc.byIndex[di]; bs != nil {
		return bs, us.blk.slots[di], false, nil
	}
	payload, sl, fresh, err := us.payload(ctx, di, st)
	if err != nil {
		return nil, sl, false, err
	}
	bs = sc.entry()
	e.bitmaps.decodeInto(bs, &sc.sc.wah, payload, int(us.blk.rows))
	sc.byIndex[di] = bs
	return bs, sl, fresh, nil
}

// sharedMask computes one slot's selection mask for the fragment from
// its bitmap plan via the task's unit set and bitmap cache — solo
// execution's loadOperands with the physical reads shared. It returns nil
// when the plan is empty (every row is relevant — the solo whole-fragment
// path); an empty mask means no row matches. Logical bitmap counters land
// on st exactly as solo execution counts them — one I/O per distinct unit
// of the plan, whose operands are adjacent because the plan is ordered by
// stored index; unit reads a batch-mate already paid land on sh.
func (e *Executor) sharedMask(ctx context.Context, plan []frag.BitmapOp, mask *bitmap.Bitset, st *IOStats, sh *kernel.SharedScanStats, sc *sharedScratch) (*bitmap.Bitset, error) {
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
// kernel.Shared in a single pass: the union of the queries' relevant
// fragments is dispatched as one task set (disk-aware when declustered,
// exactly like Solo), and each fragment task performs one physical
// bitmap selection + granule read stream that feeds every query needing
// the fragment. Per-query outcomes — including the logical I/O
// statistics — are byte-identical to K Solo executions against the same
// snapshot; only the physical read counts shrink, and Out.Shared says by
// how much. A batch-wide failure (an I/O error, cancellation) fails the
// whole call so every caller can fall back to solo execution.
func (e *Executor) Shared(ctx context.Context, qs []frag.Query, deltas kernel.Deltas, own func(int64) bool) ([]kernel.Out[IOStats], error) {
	return kernel.Shared(ctx, dispatch(e, e.shared), qs, deltas, own, func(slots []kernel.BatchQuery) (kernel.SharedFold[*sharedScratch, IOStats], error) {
		bplans := make([][]frag.BitmapOp, len(slots))
		for s := range slots {
			if slots[s].Err != nil {
				continue
			}
			var err error
			if bplans[s], err = e.bitmaps.ix.Plan(make([]frag.BitmapOp, 0, planCap), slots[s].Q); err != nil {
				return nil, err
			}
		}
		return e.sharedFold(ctx, bplans), nil
	})
}

// ExecuteSharedDeltas is Shared with every member's rows flattened.
func (e *Executor) ExecuteSharedDeltas(ctx context.Context, qs []frag.Query, deltas kernel.Deltas, own func(int64) bool) ([]kernel.SharedResult[IOStats], error) {
	return kernel.Flatten(e.Shared(ctx, qs, deltas, own))
}

// sharedFold returns the shared fragment task over the batch's bitmap
// plans (indexed like the batch): every member's mask, the granule payer
// table, and one union granule stream over which each member's own rows
// are folded with the solo page kernel (foldGranule).
func (e *Executor) sharedFold(ctx context.Context, bplans [][]frag.BitmapOp) kernel.SharedFold[*sharedScratch, IOStats] {
	store := e.store
	g := e.PrefetchFact

	return func(sc *sharedScratch, id int64, ms []kernel.Member[IOStats], slots []kernel.Slot) error {
		sc.reset()
		loc, ok := store.Loc(id)
		if !ok {
			return nil // no rows at this density
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		us := &sc.sc.units
		if err := us.begin(e.bitmaps, id); err != nil {
			return err
		}
		sc.sel = sc.sel[:0]
		for k := range ms {
			m := &ms[k]
			mask, err := e.sharedMask(ctx, bplans[m.Query], sc.mask(k), &m.St, &m.Shared, sc)
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

		// Per-slot logical granule lists (exactly the solo readRows lists)
		// drive both the logical Fact counters and the union read list;
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
			sc.sc.gran = appendGranules(sc.sc.gran[:0], mask, pages, g, store.tpp)
			for _, gr := range sc.sc.gran {
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

		// Each slot folds into a partial of its own, as its solo run does.
		sc.parts, sc.accs = slices.Grow(sc.parts[:0], len(ms))[:len(ms)], slices.Grow(sc.accs[:0], len(ms))[:len(ms)]
		for k := range slots {
			sc.parts[k] = partial{fp: slots[k].FP}
			sc.accs[k] = rowAcc{p: &sc.parts[k], base: slots[k].Base, perRow: slots[k].PerRow, rows: int(loc.Rows)}
		}

		// One physical stream over the union granules feeds every slot.
		// Its Fact counters are the physical read set (the per-slot
		// logical counts are already accounted above); its pool counters
		// are credited to the granule's paying slot.
		sc.phys = IOStats{}
		var paid IOStats
		err := e.forEachGranule(ctx, sc.sc, &sc.phys, id, sc.ugran, func(gr granule, buf []byte) {
			payer := &ms[sc.payer[int(gr.start)/g]].St
			payer.PoolHits += sc.phys.PoolHits - paid.PoolHits
			payer.PoolMisses += sc.phys.PoolMisses - paid.PoolMisses
			payer.PoolBytes += sc.phys.PoolBytes - paid.PoolBytes
			paid = sc.phys
			for k, mask := range sc.sel {
				store.foldGranule(&sc.accs[k], buf, gr, mask)
			}
		})
		if err != nil {
			return err
		}
		for k := range ms {
			slots[k].FP = sc.parts[k].fp
			ms[k].St.RowsRead += sc.parts[k].st.RowsRead
		}
		return nil
	}
}
