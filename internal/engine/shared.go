package engine

import (
	"context"

	"repro/internal/bitmap"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
)

// sharedScratch is the shared fold's per-worker buffer set: the task's
// members and slots, the per-slot selection masks, the second-operand
// buffer they are computed with, and the mask and slot lists handed to
// kernel.EvalMany.
type sharedScratch struct {
	kernel.SharedTask[Stats]
	sel       *bitmap.Bitset
	masks     []*bitmap.Bitset
	evalMasks []*bitmap.Bitset
	evalSlots []*kernel.Slot
}

func newSharedScratch() *sharedScratch {
	return &sharedScratch{sel: bitmap.New(0)}
}

func (sc *sharedScratch) mask(k int) *bitmap.Bitset {
	for len(sc.masks) <= k {
		sc.masks = append(sc.masks, bitmap.New(0))
	}
	return sc.masks[k]
}

// Shared executes K queries through kernel.Shared in a single pass: one
// task per fragment of the queries' union, each task computing every
// interested query's selection mask and then folding each slot on its
// own over the fragment's columns with the solo column kernel
// (kernel.EvalMany); a query that needs no bitmap there has a nil mask
// (every row relevant). Results and logical statistics are
// byte-identical to K Solo executions. The in-memory engine performs no
// physical reads, so Out.Shared records only batch membership and
// fragment co-scanning (PhysReadsSaved stays 0).
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
				sc.evalMasks, sc.evalSlots = sc.evalMasks[:0], sc.evalSlots[:0]
				for k := range ms {
					var mask *bitmap.Bitset
					if m := sc.mask(k); e.selectInto(f, qs[ms[k].Query], m, sc.sel, &ms[k].St) {
						mask = m
					}
					sc.evalMasks, sc.evalSlots = append(sc.evalMasks, mask), append(sc.evalSlots, &slots[k])
					if shared {
						ms[k].Shared.FragmentsShared = 1
					}
				}
				kernel.EvalMany(sc.evalSlots, sc.evalMasks, f.rows, f.cols, nil)
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
