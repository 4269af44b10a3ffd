package engine

import (
	"context"

	"repro/internal/bitmap"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
)

// SharedResult is one query's outcome in a shared multi-query scan over
// the in-memory engine: the flattened result, the un-flattened partial
// (the cluster node surface), and the query's own logical statistics —
// byte-identical to solo execution. The in-memory engine performs no
// physical reads, so Shared records only batch membership and fragment
// co-scanning (PhysReadsSaved stays 0); the win here is the single
// column pass feeding K accumulators.
type SharedResult struct {
	Res    kernel.Result
	Part   kernel.FragPartial
	St     Stats
	Shared kernel.SharedScanStats
	Err    error
}

// engSlotPart is one slot's contribution from one fragment task.
type engSlotPart struct {
	slot   int
	fp     kernel.FragPartial
	st     Stats
	shared kernel.SharedScanStats
}

type engTaskPart struct {
	parts []engSlotPart
}

type engSharedAcc struct {
	agg    []kernel.Aggregate
	g      []*kernel.Grouped
	st     []Stats
	shared []kernel.SharedScanStats
}

// sharedScratch extends the per-worker engine scratch with per-slot
// selection masks and their union for the shared row walk.
type sharedScratch struct {
	sc    *scratch
	masks []*bitmap.Bitset
	union *bitmap.Bitset
}

func newSharedScratch() *sharedScratch {
	return &sharedScratch{sc: newScratch(), union: bitmap.New(0)}
}

func (sc *sharedScratch) mask(k int) *bitmap.Bitset {
	for len(sc.masks) <= k {
		sc.masks = append(sc.masks, bitmap.New(0))
	}
	return sc.masks[k]
}

// sharedMask computes one slot's selection mask for the fragment: nil
// when the query needs no bitmap there (every row relevant), an empty
// mask when nothing matches. BitmapsRead lands on st exactly as solo
// execution counts it.
func (e *Engine) sharedMask(f *fragment, q frag.Query, mask *bitmap.Bitset, st *Stats, sc *sharedScratch) *bitmap.Bitset {
	if e.compressed {
		ops := sc.sc.ops[:0]
		for _, pr := range q.Preds {
			if !e.spec.NeedsBitmap(pr) {
				continue
			}
			switch e.icfg[pr.Dim].Kind {
			case frag.EncodedIndex:
				var nb int
				ops, nb = f.encodedC[pr.Dim].SelectOperands(ops, e.fragLevel(pr.Dim), pr.Level, pr.Member)
				st.BitmapsRead += int64(nb)
			default:
				ops = append(ops, f.simpleC[pr.Dim][pr.Level].Bitmap(pr.Member))
				st.BitmapsRead++
			}
		}
		sc.sc.ops = ops
		if len(ops) == 0 {
			return nil
		}
		sc.sc.cres = bitmap.AndAllInto(sc.sc.cres, ops...)
		return sc.sc.cres.DecompressInto(mask)
	}
	first := true
	for _, pr := range q.Preds {
		if !e.spec.NeedsBitmap(pr) {
			continue
		}
		dst := mask
		if !first {
			dst = sc.sc.sel
		}
		switch e.icfg[pr.Dim].Kind {
		case frag.EncodedIndex:
			nb := f.encoded[pr.Dim].SelectPartialInto(dst, e.fragLevel(pr.Dim), pr.Level, pr.Member)
			st.BitmapsRead += int64(nb)
		default:
			f.simple[pr.Dim][pr.Level].SelectInto(dst, pr.Member)
			st.BitmapsRead++
		}
		if !first {
			mask.And(sc.sc.sel)
		}
		first = false
	}
	if first {
		return nil
	}
	return mask
}

// ExecuteSharedDeltas executes K queries against the engine in a single
// shared pass: one task per fragment of the queries' union, each task
// computing every interested query's selection mask and then feeding
// all K accumulators from one walk over the fragment's columns
// (kernel.EvalMany). Results and logical statistics are byte-identical
// to K solo executions.
func (e *Engine) ExecuteSharedDeltas(ctx context.Context, s *exec.Scheduler, qs []frag.Query, deltas kernel.Deltas, own func(int64) bool) ([]SharedResult, error) {
	if s == nil {
		return nil, errNilScheduler
	}
	plan := kernel.PlanBatch(e.star, e.spec, qs, own)
	slots := plan.Queries

	run := func(sc *sharedScratch, ti int) (engTaskPart, error) {
		id := plan.IDs[ti]
		members := plan.Members(ti)
		out := engTaskPart{parts: make([]engSlotPart, len(members))}
		f, ok := e.frags[id]
		hasDelta := !deltas.Empty() && len(deltas.Set.Of(id)) > 0
		if !ok && !hasDelta {
			for k, si := range members {
				out.parts[k].slot = int(si)
			}
			return out, nil // fragment has no rows at this density
		}
		kslots := make([]kernel.Slot, len(members))
		evalSlots := make([]*kernel.Slot, len(members))
		for k, si := range members {
			out.parts[k].slot = int(si)
			kslots[k] = kernel.NewSlot(slots[si].Gr, id)
			evalSlots[k] = &kslots[k]
		}
		if ok {
			shared := len(members) >= 2
			masks := make([]*bitmap.Bitset, len(members))
			for k, si := range members {
				masks[k] = e.sharedMask(f, slots[si].Q, sc.mask(k), &out.parts[k].st, sc)
				if shared {
					out.parts[k].shared.FragmentsShared = 1
				}
			}
			cols := kernel.Columns{Dims: f.dims, Units: f.unitsSold, Dollars: f.dollarSales, Costs: f.cost}
			kernel.EvalMany(evalSlots, masks, f.rows, cols, sc.union)
		}
		for k, si := range members {
			p := &out.parts[k]
			p.st.RowsScanned += kslots[k].Rows
			if hasDelta {
				if sc.sc.dsc == nil {
					sc.sc.dsc = frag.NewDeltaScratch()
				}
				n, err := kernel.AddDelta(deltas, id, slots[si].Q, &kslots[k].FP, kslots[k].Base, kslots[k].PerRow, sc.sc.dsc)
				if err != nil {
					return engTaskPart{}, err
				}
				p.st.DeltaRows += n
			}
			p.st.FragmentsProcessed = 1
			p.fp = kslots[k].FP
		}
		return out, nil
	}

	merge := func(a *engSharedAcc, p engTaskPart) {
		if a.agg == nil {
			a.agg = make([]kernel.Aggregate, len(qs))
			a.g = make([]*kernel.Grouped, len(qs))
			a.st = make([]Stats, len(qs))
			a.shared = make([]kernel.SharedScanStats, len(qs))
		}
		for _, sp := range p.parts {
			si := sp.slot
			if slots[si].Gr != nil && a.g[si] == nil {
				a.g[si] = kernel.NewGrouped()
			}
			sp.fp.MergeInto(&a.agg[si], a.g[si])
			a.st[si].Add(sp.st)
			a.shared[si].FragmentsShared += sp.shared.FragmentsShared
			a.shared[si].PhysReadsSaved += sp.shared.PhysReadsSaved
		}
	}

	a, err := exec.ReduceOn(ctx, s, len(plan.IDs), newSharedScratch, run, merge)
	if err != nil {
		return nil, err
	}

	out := make([]SharedResult, len(qs))
	for si := range slots {
		if slots[si].Err != nil {
			out[si].Err = slots[si].Err
			continue
		}
		var agg kernel.Aggregate
		var grp *kernel.Grouped
		var st Stats
		var sh kernel.SharedScanStats
		if a.agg != nil {
			agg, grp, st, sh = a.agg[si], a.g[si], a.st[si], a.shared[si]
		}
		sh.Batched = len(qs)
		out[si].St = st
		out[si].Shared = sh
		out[si].Res = kernel.Result{Aggregate: agg}
		out[si].Part = kernel.FragPartial{Agg: agg}
		if gr := slots[si].Gr; gr != nil {
			out[si].Res.Groups = gr.Rows(grp)
			out[si].Part.Groups = grp
			if out[si].Part.Groups == nil {
				out[si].Part.Groups = kernel.NewGrouped()
			}
		}
	}
	return out, nil
}
