package kernel

import (
	"context"
	"errors"
	"slices"
	"sync"

	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/schema"
)

var errNilScheduler = errors.New("kernel: nil scheduler")

// deltaScratch pools the delta fold's selection buffers: a fragment task
// borrows a set only while its fragment has delta segments to fold.
var deltaScratch = sync.Pool{New: func() any { return frag.NewDeltaScratch() }}

// foldDeltas folds fragment id's delta segments into p in seal order —
// after the base rows, inside the fragment's own task — and returns the
// number of rows folded.
func foldDeltas(d Deltas, id int64, q frag.Query, p *FragPartial, base uint64, perRow []RowLevel) (int64, error) {
	if !d.Has(id) {
		return 0, nil
	}
	sc := deltaScratch.Get().(*frag.DeltaScratch)
	defer deltaScratch.Put(sc)
	return AddDelta(d, id, q, p, base, perRow, sc)
}

// Counts is a backend's work counters as the drivers use them: summed in
// task order and credited with the delta rows the drivers fold
// themselves. Both are value methods, so that a task's and a query's
// counters never leave the stack.
type Counts[St any] interface {
	Plus(o St) St
	WithDeltaRows(n int64) St
}

// Dispatch is where a backend's fragment tasks run. With Disks > 1 the
// tasks are submitted round-robin over the disks DiskOf maps their
// fragments to, so the first ones running spread over distinct disks.
type Dispatch[S any] struct {
	Star       *schema.Star
	Spec       *frag.Spec
	Sched      *exec.Scheduler
	NewScratch func() S
	Disks      int
	DiskOf     interface{ DiskOf(id int64) int }
}

func (d Dispatch[S]) shardOf(ids []int64) func(i int) int {
	if d.Disks <= 1 {
		return nil
	}
	disk := d.DiskOf
	return func(i int) int { return disk.DiskOf(ids[i]) }
}

// Out is one query's un-flattened outcome: the merged partial (Groups
// non-nil exactly when Gr is — a node ships it as is, Gr.Result flattens
// it), the work counted and, in a shared scan, what sharing saved. Err
// is the query's own validation error; it fails no batch-mate.
type Out[St any] struct {
	Part   FragPartial
	Gr     *Grouper
	St     St
	Shared SharedScanStats
	Err    error
}

// SoloFold folds the base rows of fragment id that q selects (Solo's
// argument, passed so that no fold need capture it) into the slot's
// partial and returns it with the work that took.
type SoloFold[S, St any] func(sc S, id int64, q frag.Query, slot Slot) (FragPartial, St, error)

// part is one fragment task's contribution to a solo execution.
type part[St any] struct {
	fp FragPartial
	st St
}

// Solo runs one query over the relevant fragments own selects (nil
// selects all). An invalid query's error is returned and also recorded
// in Out.Err, which tells it from an execution failure.
func Solo[S any, St Counts[St]](ctx context.Context, d Dispatch[S], q frag.Query, deltas Deltas, own func(int64) bool,
	bind func() (SoloFold[S, St], error)) (Out[St], error) {
	if d.Sched == nil {
		return Out[St]{}, errNilScheduler
	}
	if err := q.Validate(d.Star); err != nil {
		return Out[St]{Err: err}, err
	}
	gr, err := NewGrouper(d.Star, d.Spec, q.GroupBy)
	if err != nil {
		return Out[St]{Err: err}, err
	}
	fold, err := bind()
	if err != nil {
		return Out[St]{}, err
	}
	ids := d.Spec.FragmentIDs(q)
	if own != nil {
		ids = slices.DeleteFunc(ids, func(id int64) bool { return !own(id) })
	}
	run := func(sc S, i int) (part[St], error) {
		slot := NewSlot(gr, ids[i])
		fp, st, err := fold(sc, ids[i], q, slot)
		if err != nil {
			return part[St]{}, err
		}
		n, err := foldDeltas(deltas, ids[i], q, &fp, slot.Base, slot.PerRow)
		return part[St]{fp, st.WithDeltaRows(n)}, err
	}
	out := Out[St]{Gr: gr}
	if gr != nil {
		out.Part.Groups = NewGrouped()
	}
	merge := func(_ *struct{}, p part[St]) {
		p.fp.MergeInto(&out.Part.Agg, out.Part.Groups)
		out.St = out.St.Plus(p.st)
	}
	if _, err := exec.ReduceShardedOn(ctx, d.Sched, len(ids), d.shardOf(ids), d.Disks, d.NewScratch, run, merge); err != nil {
		return Out[St]{}, err
	}
	return out, nil
}

// Member is one batch member's share of one fragment task of a shared
// scan: the partial its slot folded, the work that is logically its own
// — exactly what its solo execution would count — and what the
// batch-mates' reads saved it.
type Member[St any] struct {
	Query  int // index into the batch
	FP     FragPartial
	St     St
	Shared SharedScanStats
}

// SharedFold folds the base rows of fragment id into slots[k] for every
// member ms[k] needing the fragment — in one pass over the fragment —
// and counts each member's work into ms[k].
type SharedFold[S, St any] func(sc S, id int64, ms []Member[St], slots []Slot) error

// Shared runs K queries in one pass over the union of their relevant
// fragments (PlanBatch): one task per fragment feeds every member
// needing it. Every outcome is byte-identical to the member's Solo run;
// the error is batch-wide, so every member can fall back to Solo.
func Shared[S any, St Counts[St]](ctx context.Context, d Dispatch[S], qs []frag.Query, deltas Deltas, own func(int64) bool,
	bind func([]BatchQuery) (SharedFold[S, St], error)) ([]Out[St], error) {
	if d.Sched == nil {
		return nil, errNilScheduler
	}
	plan := PlanBatch(d.Star, d.Spec, qs, own)
	fold, err := bind(plan.Queries)
	if err != nil {
		return nil, err
	}
	run := func(sc S, ti int) ([]Member[St], error) {
		id := plan.IDs[ti]
		members := plan.Members(ti)
		ms := make([]Member[St], len(members))
		slots := make([]Slot, len(members))
		for k, si := range members {
			ms[k].Query = int(si)
			slots[k] = NewSlot(plan.Queries[si].Gr, id)
		}
		if err := fold(sc, id, ms, slots); err != nil {
			return nil, err
		}
		for k := range ms {
			n, err := foldDeltas(deltas, id, qs[ms[k].Query], &slots[k].FP, slots[k].Base, slots[k].PerRow)
			if err != nil {
				return nil, err
			}
			ms[k].FP, ms[k].St = slots[k].FP, ms[k].St.WithDeltaRows(n)
		}
		return ms, nil
	}
	outs := make([]Out[St], len(qs))
	for i, m := range plan.Queries {
		if outs[i].Err = m.Err; m.Err != nil {
			continue
		}
		outs[i].Shared.Batched = len(qs)
		if outs[i].Gr = m.Gr; m.Gr != nil {
			outs[i].Part.Groups = NewGrouped()
		}
	}
	merge := func(_ *struct{}, ms []Member[St]) {
		for _, m := range ms {
			o := &outs[m.Query]
			m.FP.MergeInto(&o.Part.Agg, o.Part.Groups)
			o.St = o.St.Plus(m.St)
			o.Shared.Add(m.Shared)
		}
	}
	if _, err := exec.ReduceShardedOn(ctx, d.Sched, len(plan.IDs), d.shardOf(plan.IDs), d.Disks, d.NewScratch, run, merge); err != nil {
		return nil, err
	}
	return outs, nil
}

// SharedResult is Out with the rows flattened: what the backends'
// ExecuteSharedDeltas return.
type SharedResult[St any] struct {
	Out[St]
	Res Result
}

// Flatten turns a shared run's outcomes into SharedResults.
func Flatten[St any](outs []Out[St], err error) ([]SharedResult[St], error) {
	if err != nil {
		return nil, err
	}
	rs := make([]SharedResult[St], len(outs))
	for i, o := range outs {
		rs[i] = SharedResult[St]{Out: o, Res: o.Gr.Result(o.Part)}
	}
	return rs, nil
}
