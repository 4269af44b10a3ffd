package storage

import (
	"context"

	"repro/internal/bitmap"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
)

// SharedResult is one query's outcome in a shared multi-query scan: the
// flattened result (the warehouse surface), the un-flattened partial
// (the cluster node surface), the query's own *logical* I/O statistics
// — byte-identical to what its solo execution would report — and the
// physical savings sharing bought it. Err carries a per-query
// validation failure; batch-wide failures (I/O errors, cancellation)
// fail the whole call instead so every caller can fall back to solo
// execution.
type SharedResult struct {
	Res    kernel.Result
	Part   kernel.FragPartial
	St     IOStats
	Shared kernel.SharedScanStats
	Err    error
}

// slotPart is one slot's contribution from one fragment task.
type slotPart struct {
	slot   int
	fp     kernel.FragPartial
	st     IOStats
	shared kernel.SharedScanStats
}

// sharedTaskPart is one fragment task's output: the per-slot partials of
// every query that needed the fragment.
type sharedTaskPart struct {
	parts []slotPart
}

// sharedAcc folds the tasks' outputs per slot.
type sharedAcc struct {
	agg    []kernel.Aggregate
	g      []*kernel.Grouped
	st     []IOStats
	shared []kernel.SharedScanStats
}

// bmCached is one bitmap fragment decoded for the duration of a fragment
// task, so batch-mates selecting the same bitmap reuse it instead of
// reading and decoding it again.
type bmCached struct {
	bs *bitmap.Bitset
	c  *bitmap.Compressed
}

// sharedScratch extends the per-worker executor scratch with the shared
// path's per-task state: the decoded bitmaps, per-slot selection masks,
// the mask union, and the granule ownership table.
type sharedScratch struct {
	sc      *execScratch
	keys    []uint16    // decodeTuple key buffer
	byIndex []*bmCached // the task's decoded bitmaps by stored index (nil = not yet)
	entries []*bmCached // bmCached freelist, reused across tasks
	used    int
	masks   []*bitmap.Bitset
	union   *bitmap.Bitset
	payer   []int32 // granule index -> first-paying local slot (-1 = unread)
	ugran   []granule
}

func (e *Executor) newSharedScratch() *sharedScratch {
	return &sharedScratch{
		sc:      e.newScratch(),
		keys:    make([]uint16, len(e.store.star.Dims)),
		byIndex: make([]*bmCached, e.bitmaps.NumBitmaps()),
		union:   bitmap.New(0),
	}
}

// reset clears the per-task bitmap cache, recycling its entries.
func (sc *sharedScratch) reset() {
	clear(sc.byIndex)
	sc.used = 0
}

func (sc *sharedScratch) entry() *bmCached {
	if sc.used == len(sc.entries) {
		sc.entries = append(sc.entries, &bmCached{bs: bitmap.New(0), c: &bitmap.Compressed{}})
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
func (sc *sharedScratch) operand(ctx context.Context, e *Executor, di int, st *IOStats) (ent *bmCached, sl frag.BitmapSlot, fresh bool, err error) {
	us := &sc.sc.units
	if ent = sc.byIndex[di]; ent != nil {
		return ent, us.blk.slots[di], false, nil
	}
	payload, sl, fresh, err := us.payload(ctx, di, st)
	if err != nil {
		return nil, sl, false, err
	}
	ent = sc.entry()
	if e.bitmaps.compressed {
		decodeCompressedInto(ent.c, payload)
	} else {
		unpackBitsInto(ent.bs, payload, int(us.blk.rows))
	}
	sc.byIndex[di] = ent
	return ent, sl, fresh, nil
}

// sharedMask computes one slot's selection mask for the fragment from
// its bitmap plan via the task's unit set and bitmap cache — solo
// execution's loadOperands with the physical reads shared. It returns nil
// when the plan is empty (every row is relevant — the solo scanWhole
// path); an empty mask means no row matches. Logical bitmap counters land
// on st exactly as solo execution counts them — one I/O per distinct unit
// of the plan, whose operands are adjacent because the plan is ordered by
// stored index; unit reads a batch-mate already paid land on sh. On a
// compressed file the WAH intersection is decompressed into the mask so
// the shared row walk is uniform across paths.
func (e *Executor) sharedMask(ctx context.Context, rows int, plan []frag.BitmapOp, mask *bitmap.Bitset, st *IOStats, sh *kernel.SharedScanStats, sc *sharedScratch) (*bitmap.Bitset, error) {
	if len(plan) == 0 {
		return nil, nil // no bitmap access: every fragment row is relevant
	}
	csel := &sc.sc.csel
	csel.Reset()
	unit := int32(-1)
	for i, op := range plan {
		ent, sl, fresh, err := sc.operand(ctx, e, int(op.Index), st)
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
		case e.bitmaps.compressed:
			csel.Add(ent.c, op.Complement)
		case i == 0:
			mask.Reinit(ent.bs.Len())
			mask.CopyFrom(ent.bs)
			if op.Complement {
				mask.Not()
			}
		case op.Complement:
			mask.AndNot(ent.bs)
		default:
			mask.And(ent.bs)
		}
	}
	if !e.bitmaps.compressed {
		return mask, nil
	}
	res := csel.Intersect(rows)
	if !res.Any() {
		mask.Reinit(rows)
		return mask, nil // empty intersection: no fact page is touched
	}
	return res.DecompressInto(mask), nil
}

// ExecuteSharedDeltas executes K queries against one pinned snapshot in
// a single shared pass: the union of the queries' relevant fragments is
// dispatched as one task set (through the scheduler, disk-aware when
// declustered, exactly like solo execution), and each fragment task
// performs one physical bitmap selection + granule read stream that
// feeds every query needing the fragment. Per-query results — including
// the logical I/O statistics — are byte-identical to K solo executions
// against the same snapshot; only the physical read counts shrink.
func (e *Executor) ExecuteSharedDeltas(ctx context.Context, qs []frag.Query, deltas kernel.Deltas, own func(int64) bool) ([]SharedResult, error) {
	star := e.store.star
	plan := kernel.PlanBatch(star, e.store.spec, qs, own)
	slots := plan.Queries
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

	tpp := e.store.tpp
	g := e.PrefetchFact

	run := func(sc *sharedScratch, ti int) (sharedTaskPart, error) {
		sc.reset()
		id := plan.IDs[ti]
		members := plan.Members(ti)
		out := sharedTaskPart{parts: make([]slotPart, len(members))}
		kslots := make([]kernel.Slot, len(members))
		for k, s := range members {
			out.parts[k].slot = int(s)
			kslots[k] = kernel.NewSlot(slots[s].Gr, id)
		}
		loc, ok := e.store.Loc(id)
		if ok {
			if err := ctx.Err(); err != nil {
				return sharedTaskPart{}, err
			}
			shared := len(members) >= 2
			rows := int(loc.Rows)
			masks := make([]*bitmap.Bitset, len(members))
			anyNil := false
			us := &sc.sc.units
			if err := us.begin(e.bitmaps, id); err != nil {
				return sharedTaskPart{}, err
			}
			for k, s := range members {
				p := &out.parts[k]
				m, err := e.sharedMask(ctx, rows, bplans[s], sc.mask(k), &p.st, &p.shared, sc)
				if err != nil {
					us.release()
					return sharedTaskPart{}, err
				}
				masks[k] = m
				if m == nil {
					anyNil = true
				}
				if shared {
					p.shared.FragmentsShared = 1
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
				p := &out.parts[k]
				p.st.FactIOs++
				p.st.FactPages += int64(count)
				if sc.payer[gi] == -1 {
					sc.payer[gi] = int32(k)
				} else {
					p.shared.PhysReadsSaved++
				}
			}
			for k := range members {
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
			if !anyNil && len(members) > 0 {
				rowUnion = masks[0]
				if len(members) > 1 {
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
				payer := &out.parts[sc.payer[int(gr.start)/g]]
				payer.st.PoolHits += phys.PoolHits - prev.PoolHits
				payer.st.PoolMisses += phys.PoolMisses - prev.PoolMisses
				payer.st.PoolBytes += phys.PoolBytes - prev.PoolBytes
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
				return sharedTaskPart{}, readErr
			}
			pipe.finish()
		}

		// Base rows first, then each slot's delta segments in seal order —
		// the same fold order as solo execution.
		for k, s := range members {
			p := &out.parts[k]
			p.st.RowsRead += kslots[k].Rows
			if !deltas.Empty() {
				if sc.sc.dsc == nil {
					sc.sc.dsc = frag.NewDeltaScratch()
				}
				n, err := kernel.AddDelta(deltas, id, slots[s].Q, &kslots[k].FP, kslots[k].Base, kslots[k].PerRow, sc.sc.dsc)
				if err != nil {
					return sharedTaskPart{}, err
				}
				p.st.DeltaRows += n
			}
			p.fp = kslots[k].FP
		}
		return out, nil
	}

	merge := func(a *sharedAcc, p sharedTaskPart) {
		if a.agg == nil {
			a.agg = make([]kernel.Aggregate, len(qs))
			a.g = make([]*kernel.Grouped, len(qs))
			a.st = make([]IOStats, len(qs))
			a.shared = make([]kernel.SharedScanStats, len(qs))
		}
		for _, sp := range p.parts {
			s := sp.slot
			if slots[s].Gr != nil && a.g[s] == nil {
				a.g[s] = kernel.NewGrouped()
			}
			sp.fp.MergeInto(&a.agg[s], a.g[s])
			a.st[s].Add(sp.st)
			a.shared[s].FragmentsShared += sp.shared.FragmentsShared
			a.shared[s].PhysReadsSaved += sp.shared.PhysReadsSaved
		}
	}

	shardOf, shards := e.shards(plan.IDs)
	a, err := exec.ReduceShardedOn(ctx, e.sched, len(plan.IDs), shardOf, shards, e.newSharedScratch, run, merge)
	if err != nil {
		return nil, err
	}

	out := make([]SharedResult, len(qs))
	for s := range slots {
		if slots[s].Err != nil {
			out[s].Err = slots[s].Err
			continue
		}
		var agg kernel.Aggregate
		var grp *kernel.Grouped
		var st IOStats
		var sh kernel.SharedScanStats
		if a.agg != nil {
			agg, grp, st, sh = a.agg[s], a.g[s], a.st[s], a.shared[s]
		}
		sh.Batched = len(qs)
		out[s].St = st
		out[s].Shared = sh
		out[s].Res = kernel.Result{Aggregate: agg}
		out[s].Part = kernel.FragPartial{Agg: agg}
		if gr := slots[s].Gr; gr != nil {
			out[s].Res.Groups = gr.Rows(grp)
			out[s].Part.Groups = grp
			if out[s].Part.Groups == nil {
				out[s].Part.Groups = kernel.NewGrouped()
			}
		}
	}
	return out, nil
}
