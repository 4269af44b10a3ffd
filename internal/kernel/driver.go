package kernel

import (
	"context"
	"errors"

	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/schema"
)

var errNilScheduler = errors.New("kernel: nil scheduler")

// Counts is a backend's work counters as the drivers use them: summed
// over the tasks and credited with the delta rows the drivers fold
// themselves. Both are value methods, so that a task's and a query's
// counters never leave the stack.
type Counts[St any] interface {
	Plus(o St) St
	WithDeltaRows(n int64) St
}

// Dispatch is where a backend's fragment tasks run, and with what: each
// worker keeps its scratch in its own slot of the list the backend
// shares with every epoch of its store. With Disks > 1 the tasks are
// submitted round-robin over the disks DiskOf maps their fragments to, so
// the first ones running spread over distinct disks.
type Dispatch[S any] struct {
	Star    *schema.Star
	Spec    *frag.Spec
	Sched   *exec.Scheduler
	Scratch *exec.Scratch[S]
	Disks   int
	DiskOf  interface{ DiskOf(id int64) int }
}

// shardOf maps task i of the plan to the disk of its fragment.
func (d Dispatch[S]) shardOf(p *BatchPlan) func(i int) int {
	if d.Disks <= 1 {
		return nil
	}
	disk := d.DiskOf
	return func(i int) int { return disk.DiskOf(p.at(i)) }
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
// scan: the work that is logically its own — exactly what the query
// alone would count — and what the batch-mates' reads saved it.
type Member[St any] struct {
	Query  int // index into the batch
	St     St
	Shared SharedScanStats
}

// SharedFold folds the base rows of fragment id into slots[k] for every
// member ms[k] of batch needing the fragment — one fold per member over
// one read of it — and counts each member's work into ms[k]. Neither
// slice outlives the call.
type SharedFold[S, St any] func(sc S, id int64, batch []BatchQuery, ms []Member[St], slots []Slot) error

// SharedTask is a shared scan's per-task buffers, the running task's
// members and their slots. Each backend's worker scratch embeds one, so
// that they are reused from task to task and call to call.
type SharedTask[St any] struct {
	ms    []Member[St]
	slots []Slot
}

func (t *SharedTask[St]) sharedTask() *SharedTask[St] { return t }

// TaskScratch is a worker scratch that embeds a SharedTask.
type TaskScratch[St any] interface{ sharedTask() *SharedTask[St] }

// Outs is a batch's outcomes by member index. The first is held in
// place, so that a batch of one needs no slice for its outcome.
type Outs[St any] struct {
	first Out[St]
	rest  []Out[St] // the others; nil until sized
}

// size makes room for n outcomes, unless there is room already.
func (o *Outs[St]) size(n int) {
	if o.rest == nil && n > 0 {
		o.rest = make([]Out[St], n-1)
	}
}

// Len returns the number of outcomes: the batch's size.
func (o *Outs[St]) Len() int {
	if o.rest == nil {
		return 0
	}
	return 1 + len(o.rest)
}

// At returns member i's outcome.
func (o *Outs[St]) At(i int) *Out[St] {
	if i == 0 {
		return &o.first
	}
	return &o.rest[i-1]
}

// batch is what a Shared call's tasks share: its plan, the fold bound to
// it and the delta segments folded after it (nil: none).
type batch[S TaskScratch[St], St Counts[St]] struct {
	BatchPlan
	fold SharedFold[S, St]
	set  *frag.DeltaSet
}

// task runs fragment task ti: it shapes a slot for every member needing
// the fragment, lets the backend fold the base rows into them, folds the
// fragment's delta segments in seal order and adds each slot to its
// member's outcome in outs, the worker's own.
func (b *batch[S, St]) task(sc S, outs *Outs[St], ti int) error {
	id := b.at(ti)
	t := sc.sharedTask()
	defer clear(t.slots) // no task's partial outlives it in the scratch
	t.ms, t.slots = t.ms[:0], t.slots[:0]
	for si := range b.Queries {
		if b.Needs(si, id) {
			t.ms = append(t.ms, Member[St]{Query: si})
			t.slots = append(t.slots, NewSlot(b.Queries[si].Gr, id))
		}
	}
	if err := b.fold(sc, id, b.Queries, t.ms, t.slots); err != nil {
		return err
	}
	outs.size(len(b.Queries))
	for k, m := range t.ms {
		slot, mq := &t.slots[k], &b.Queries[m.Query]
		n := slot.addDeltas(b.set, id, mq.ranges)
		addTo(outs.At(m.Query), mq.Gr, slot.FP, m.St.WithDeltaRows(n), m.Shared)
	}
	return nil
}

// mergeAll adds a worker's outcomes to another's.
func mergeAll[St Counts[St]](acc, part *Outs[St]) {
	for i := 0; i < acc.Len(); i++ {
		mergeOuts(acc.At(i), part.At(i))
	}
}

// Shared runs K queries in one pass over the union of their relevant
// fragments (PlanBatch): one task per fragment feeds every member
// needing it; a lone query is a batch of one. A member's own validation
// error is recorded in its Out.Err; the returned error is batch-wide (an
// execution failure). Each worker sums the tasks it runs into outcomes
// of its own, by batch index; nothing else is allocated per task.
func Shared[S TaskScratch[St], St Counts[St]](ctx context.Context, d Dispatch[S], qs []frag.Query, deltas Deltas, own func(int64) bool,
	bind func([]BatchQuery) (SharedFold[S, St], error)) (Outs[St], error) {
	if d.Sched == nil {
		return Outs[St]{}, errNilScheduler
	}
	b := new(batch[S, St])
	if b.plan(d.Star, d.Spec, qs, deltas, own); !deltas.Empty() {
		b.set = deltas.Set
	}
	var err error
	if b.fold, err = bind(b.Queries); err != nil {
		return Outs[St]{}, err
	}
	outs, err := exec.ReduceShardedOn(ctx, d.Sched, b.Tasks(), d.shardOf(&b.BatchPlan), d.Disks, d.Scratch, b.task, mergeAll[St])
	if err != nil {
		return Outs[St]{}, err
	}
	outs.size(len(qs)) // no fragment to scan
	for i := range b.Queries {
		m := &b.Queries[i]
		if o := outs.At(i); m.Err != nil {
			o.Err = m.Err
		} else {
			addTo(o, m.Gr, FragPartial{}, *new(St), SharedScanStats{Batched: len(qs)}) // with no fragment at all, still the grouper and empty groups
		}
	}
	return outs, nil
}

// Lone returns a batch of one's outcome, and its member's own error as
// the error when the batch did not fail.
func Lone[St any](outs Outs[St], err error) (Out[St], error) {
	if err == nil {
		err = outs.first.Err
	}
	return outs.first, err
}

// SharedResult is Out with the rows flattened: what the backends'
// ExecuteSharedDeltas return.
type SharedResult[St any] struct {
	Out[St]
	Res Result
}

// Flatten turns a shared run's outcomes into SharedResults.
func Flatten[St any](outs Outs[St], err error) ([]SharedResult[St], error) {
	if err != nil {
		return nil, err
	}
	rs := make([]SharedResult[St], outs.Len())
	for i := range rs {
		o := outs.At(i)
		rs[i] = SharedResult[St]{Out: *o, Res: o.Gr.Result(o.Part)}
	}
	return rs, nil
}
