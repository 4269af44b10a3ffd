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

// deltaScratch pools the delta fold's compiled queries: a fragment task
// borrows one only while its fragment has delta segments to fold.
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

// Counts is a backend's work counters as the drivers use them: summed
// over the tasks and credited with the delta rows the drivers fold
// themselves. Both are value methods, so that a task's and a query's
// counters never leave the stack.
type Counts[St any] interface {
	Plus(o St) St
	WithDeltaRows(n int64) St
}

// Dispatch is where a backend's fragment tasks run, and with what: the
// workers borrow their scratch, a task at a time, from the free list the
// backend shares with every epoch of its store. With Disks > 1 the tasks are submitted round-robin
// over the disks DiskOf maps their fragments to, so the first ones
// running spread over distinct disks.
type Dispatch[S any] struct {
	Star    *schema.Star
	Spec    *frag.Spec
	Sched   *exec.Scheduler
	Scratch *exec.Scratch[S]
	Disks   int
	DiskOf  interface{ DiskOf(id int64) int }
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
	// Each worker sums the fragments it runs into an outcome of its own:
	// sums per key commute, so who ran which fragment does not show.
	run := func(sc S, acc *Out[St], i int) error {
		slot := NewSlot(gr, ids[i])
		fp, st, err := fold(sc, ids[i], q, slot)
		if err != nil {
			return err
		}
		n, err := foldDeltas(deltas, ids[i], q, &fp, slot.Base, slot.PerRow)
		if err != nil {
			return err
		}
		addTo(acc, gr, fp, st.WithDeltaRows(n), SharedScanStats{})
		return nil
	}
	out, err := exec.ReduceShardedOn(ctx, d.Sched, len(ids), d.shardOf(ids), d.Disks, d.Scratch, run, mergeOuts[St])
	if err != nil {
		return Out[St]{}, err
	}
	addTo(&out, gr, FragPartial{}, *new(St), SharedScanStats{}) // with no fragment at all, still the grouper and empty groups
	return out, nil
}

// addTo adds to a query's outcome a partial of it — a fragment task's, or
// everything another worker summed — given the query's grouper.
func addTo[St Counts[St]](o *Out[St], gr *Grouper, fp FragPartial, st St, sh SharedScanStats) {
	if gr != nil {
		if o.Gr = gr; o.Part.Groups == nil {
			o.Part.Groups = NewGrouped()
		}
	}
	fp.MergeInto(&o.Part.Agg, o.Part.Groups)
	o.St = o.St.Plus(st)
	o.Shared.Add(sh)
}

func mergeOuts[St Counts[St]](acc, part *Out[St]) {
	addTo(acc, part.Gr, part.Part, part.St, part.Shared)
}

// Member is one batch member's share of one fragment task of a shared
// scan: the work that is logically its own — exactly what its solo
// execution would count — and what the batch-mates' reads saved it.
type Member[St any] struct {
	Query  int // index into the batch
	St     St
	Shared SharedScanStats
}

// SharedFold folds the base rows of fragment id into slots[k] for every
// member ms[k] needing the fragment — in one pass over the fragment —
// and counts each member's work into ms[k]. Neither slice outlives the
// call.
type SharedFold[S, St any] func(sc S, id int64, ms []Member[St], slots []Slot) error

// batchAcc is what one worker sums a shared scan's tasks into — the
// members' outcomes by batch index — and the running task's members and
// slots, reused from task to task.
type batchAcc[St any] struct {
	outs  []Out[St]
	ms    []Member[St]
	slots []Slot
}

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
	run := func(sc S, acc *batchAcc[St], ti int) error {
		id := plan.IDs[ti]
		members := plan.Members(ti)
		if acc.outs == nil {
			acc.outs = make([]Out[St], len(qs))
		}
		acc.ms, acc.slots = acc.ms[:0], acc.slots[:0]
		for _, si := range members {
			acc.ms = append(acc.ms, Member[St]{Query: int(si)})
			acc.slots = append(acc.slots, NewSlot(plan.Queries[si].Gr, id))
		}
		if err := fold(sc, id, acc.ms, acc.slots); err != nil {
			return err
		}
		for k, m := range acc.ms {
			slot := &acc.slots[k]
			n, err := foldDeltas(deltas, id, qs[m.Query], &slot.FP, slot.Base, slot.PerRow)
			if err != nil {
				return err
			}
			addTo(&acc.outs[m.Query], plan.Queries[m.Query].Gr, slot.FP, m.St.WithDeltaRows(n), m.Shared)
		}
		return nil
	}
	merge := func(acc, part *batchAcc[St]) {
		for i := range acc.outs {
			mergeOuts(&acc.outs[i], &part.outs[i])
		}
	}
	acc, err := exec.ReduceShardedOn(ctx, d.Sched, len(plan.IDs), d.shardOf(plan.IDs), d.Disks, d.Scratch, run, merge)
	if err != nil {
		return nil, err
	}
	outs := acc.outs
	if outs == nil { // no fragment to scan
		outs = make([]Out[St], len(qs))
	}
	for i, m := range plan.Queries {
		if outs[i].Err = m.Err; m.Err == nil {
			addTo(&outs[i], m.Gr, FragPartial{}, *new(St), SharedScanStats{Batched: len(qs)})
		}
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
