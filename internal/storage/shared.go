package storage

import (
	"context"

	"repro/internal/bitmap"
	"repro/internal/frag"
	"repro/internal/kernel"
)

// sharedScratch extends the per-worker executor scratch with the shared
// path's per-task state: the bitmap fragments decoded for the duration of
// the task (so batch-mates selecting the same bitmap reuse it instead of
// reading and decoding it again), per-slot selection masks, the mask
// union, and the granule ownership table.
type sharedScratch struct {
	sc      *execScratch
	keys    []uint16         // decodeTuple key buffer
	byIndex []*bitmap.Bitset // the task's decoded bitmaps by stored index (nil = not yet)
	entries []*bitmap.Bitset // decoded-bitmap freelist, reused across tasks
	used    int
	masks   []*bitmap.Bitset
	union   *bitmap.Bitset
	payer   []int32 // granule index -> first-paying local slot (-1 = unread)
	ugran   []granule
}

// newSharedScratch returns the builder of shared scratch for a schema of
// dims dimensions and bitmaps stored bitmaps per fragment — all it needs
// of the executor, which the lists outlive.
func newSharedScratch(dims, bitmaps int) func() *sharedScratch {
	return func() *sharedScratch {
		return &sharedScratch{
			sc:      newScratch(),
			keys:    make([]uint16, dims),
			byIndex: make([]*bitmap.Bitset, bitmaps),
			union:   bitmap.New(0),
		}
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
// when the plan is empty (every row is relevant — the solo scanWhole
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
// table and one union granule stream feeding every member's slot.
func (e *Executor) sharedFold(ctx context.Context, bplans [][]frag.BitmapOp) kernel.SharedFold[*sharedScratch, IOStats] {
	tpp := e.store.tpp
	g := e.PrefetchFact

	return func(sc *sharedScratch, id int64, parts []kernel.Member[IOStats], kslots []kernel.Slot) error {
		sc.reset()
		loc, ok := e.store.Loc(id)
		if ok {
			if err := ctx.Err(); err != nil {
				return err
			}
			shared := len(parts) >= 2
			rows := int(loc.Rows)
			masks := make([]*bitmap.Bitset, len(parts))
			anyNil := false
			us := &sc.sc.units
			if err := us.begin(e.bitmaps, id); err != nil {
				return err
			}
			for k := range parts {
				p := &parts[k]
				m, err := e.sharedMask(ctx, bplans[p.Query], sc.mask(k), &p.St, &p.Shared, sc)
				if err != nil {
					us.release()
					return err
				}
				masks[k] = m
				if m == nil {
					anyNil = true
				}
				if shared {
					p.Shared.FragmentsShared = 1
				}
			}
			us.release()

			// Per-slot logical granule lists (exactly the solo readHits /
			// scanWhole lists) drive both the logical Fact counters and the
			// union read list; the first slot listing a granule pays its
			// physical read, later slots record the saving.
			granules := (int(loc.Pages) + g - 1) / g
			if cap(sc.payer) < granules {
				sc.payer = make([]int32, granules)
			}
			sc.payer = sc.payer[:granules]
			for i := range sc.payer {
				sc.payer[i] = -1
			}
			visit := func(k int, gi, count int) {
				p := &parts[k]
				p.St.FactIOs++
				p.St.FactPages += int64(count)
				if sc.payer[gi] == -1 {
					sc.payer[gi] = int32(k)
				} else {
					p.Shared.PhysReadsSaved++
				}
			}
			for k := range parts {
				m := masks[k]
				if m == nil {
					for gi := 0; gi < granules; gi++ {
						count := g
						if gi*g+count > int(loc.Pages) {
							count = int(loc.Pages) - gi*g
						}
						visit(k, gi, count)
					}
					continue
				}
				next := m.NextSet(0)
				for gi := 0; gi < granules && next >= 0; gi++ {
					rowHi := (gi + 1) * g * tpp
					if next >= rowHi {
						continue
					}
					count := g
					if gi*g+count > int(loc.Pages) {
						count = int(loc.Pages) - gi*g
					}
					visit(k, gi, count)
					next = m.NextSet(rowHi)
				}
			}
			sc.ugran = sc.ugran[:0]
			for gi := 0; gi < granules; gi++ {
				if sc.payer[gi] < 0 {
					continue
				}
				count := g
				if gi*g+count > int(loc.Pages) {
					count = int(loc.Pages) - gi*g
				}
				sc.ugran = append(sc.ugran, granule{start: int32(gi * g), count: int32(count)})
			}

			// Row union for the masked-only walk.
			var rowUnion *bitmap.Bitset
			if !anyNil && len(parts) > 0 {
				rowUnion = masks[0]
				if len(parts) > 1 {
					sc.union.Reinit(rows)
					sc.union.CopyFrom(masks[0])
					for _, m := range masks[1:] {
						sc.union.Or(m)
					}
					rowUnion = sc.union
				}
			}

			// One physical stream over the union granules feeds every slot.
			// The pipe's counters land in phys: its Fact counters are the
			// physical read set (the per-slot logical counts are already
			// accounted above) and its pool counters are credited to the
			// granule's paying slot.
			var phys IOStats
			pipe := e.startGranules(ctx, sc.sc, &phys, id, sc.ugran)
			prev := phys
			var readErr error
			for range sc.ugran {
				gr, buf, err := pipe.next()
				if err != nil {
					readErr = err
					break
				}
				payer := &parts[sc.payer[int(gr.start)/g]]
				payer.St.PoolHits += phys.PoolHits - prev.PoolHits
				payer.St.PoolMisses += phys.PoolMisses - prev.PoolMisses
				payer.St.PoolBytes += phys.PoolBytes - prev.PoolBytes
				prev = phys
				rowLo := int(gr.start) * tpp
				rowHi := rowLo + int(gr.count)*tpp
				if rowHi > rows {
					rowHi = rows
				}
				if anyNil {
					for r := rowLo; r < rowHi; r++ {
						pageIn := r/tpp - int(gr.start)
						off := pageIn*e.store.pageSize + (r%tpp)*e.store.tupleSize
						tp, _ := e.store.decodeTuple(buf, off, sc.keys)
						for k := range kslots {
							if masks[k] == nil || masks[k].Get(r) {
								kslots[k].AddLeaves(tp.Keys, int64(tp.UnitsSold), int64(tp.DollarSales), int64(tp.Cost))
							}
						}
					}
					continue
				}
				for r := rowUnion.NextSet(rowLo); r >= 0 && r < rowHi; r = rowUnion.NextSet(r + 1) {
					pageIn := r/tpp - int(gr.start)
					off := pageIn*e.store.pageSize + (r%tpp)*e.store.tupleSize
					tp, _ := e.store.decodeTuple(buf, off, sc.keys)
					for k := range kslots {
						if masks[k].Get(r) {
							kslots[k].AddLeaves(tp.Keys, int64(tp.UnitsSold), int64(tp.DollarSales), int64(tp.Cost))
						}
					}
				}
			}
			if readErr != nil {
				return readErr
			}
			pipe.finish()
		}
		for k := range parts {
			parts[k].St.RowsRead += kslots[k].Rows
		}
		return nil
	}
}
