package engine

import (
	"context"

	"repro/internal/bitmap"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
)

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

// Shared executes K queries through kernel.Shared in a single pass: one
// task per fragment of the queries' union, each task computing every
// interested query's selection mask and then feeding all K slots from
// one walk over the fragment's columns (kernel.EvalMany). Results and
// logical statistics are byte-identical to K Solo executions. The
// in-memory engine performs no physical reads, so Out.Shared records
// only batch membership and fragment co-scanning (PhysReadsSaved stays
// 0); the win here is the single column pass feeding K accumulators.
func (e *Engine) Shared(ctx context.Context, s *exec.Scheduler, qs []frag.Query, deltas kernel.Deltas, own func(int64) bool) ([]kernel.Out[Stats], error) {
	d := kernel.Dispatch[*sharedScratch]{Star: e.star, Spec: e.spec, Sched: s, Scratch: e.shared}
	return kernel.Shared(ctx, d, qs, deltas, own, func([]kernel.BatchQuery) (kernel.SharedFold[*sharedScratch, Stats], error) {
		return func(sc *sharedScratch, id int64, ms []kernel.Member[Stats], slots []kernel.Slot) error {
			f, ok := e.frags[id]
			if !ok && !deltas.Has(id) {
				return nil // fragment has no rows at this density
			}
			if ok {
				shared := len(ms) >= 2
				masks := make([]*bitmap.Bitset, len(ms))
				evalSlots := make([]*kernel.Slot, len(ms))
				for k := range ms {
					evalSlots[k] = &slots[k]
					masks[k] = e.sharedMask(f, qs[ms[k].Query], sc.mask(k), &ms[k].St, sc)
					if shared {
						ms[k].Shared.FragmentsShared = 1
					}
				}
				cols := kernel.Columns{Dims: f.dims, Units: f.unitsSold, Dollars: f.dollarSales, Costs: f.cost}
				kernel.EvalMany(evalSlots, masks, f.rows, cols, sc.union)
			}
			for k := range ms {
				ms[k].St.RowsScanned += slots[k].Rows
				ms[k].St.FragmentsProcessed = 1
			}
			return nil
		}, nil
	})
}

// ExecuteSharedDeltas is Shared with every member's rows flattened.
func (e *Engine) ExecuteSharedDeltas(ctx context.Context, s *exec.Scheduler, qs []frag.Query, deltas kernel.Deltas, own func(int64) bool) ([]kernel.SharedResult[Stats], error) {
	return kernel.Flatten(e.Shared(ctx, s, qs, deltas, own))
}
