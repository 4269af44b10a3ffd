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
// over the tasks by a value method, so that a task's and a query's
// counters never leave the stack.
type Counts[St any] interface {
	Plus(o St) St
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

// Out is one query's un-flattened outcome: the merged partial — its
// groups a run, nil for an ungrouped query (Gr nil) or one no row
// matched; a node ships it as is, Gr.Result flattens it — the backend's
// work counted, the appended (not yet compacted) rows the driver folded
// from delta segments and, in a shared scan, what sharing saved. Err is
// the query's own validation error; it fails no batch-mate.
type Out[St any] struct {
	Part      FragPartial
	Gr        *Grouper
	St        St
	DeltaRows int64
	Shared    SharedScanStats
	Err       error

	g Grouped // a worker's groups of the query; sealed into Part.Groups
}

// addTo adds one fragment's slot, with the delta rows folded into it, to
// a query's outcome, given the query's grouper: the aligned path keys the
// slot's whole total by its base key — an aligned fragment whose
// selection matched nothing contributes no group — and the per-row
// fallback's groups are in o.g already.
func addTo[St Counts[St]](o *Out[St], gr *Grouper, s *Slot, st St, deltaRows int64, sh SharedScanStats) {
	o.Part.Agg.Add(s.Agg)
	if gr != nil && s.Groups == nil && s.Agg.Count != 0 {
		o.g.Add(s.Base, s.Agg)
	}
	o.St = o.St.Plus(st)
	o.DeltaRows += deltaRows
	o.Shared.Add(sh)
}

// mergeOuts adds another worker's outcome of a query to acc.
func mergeOuts[St Counts[St]](acc, part *Out[St]) {
	acc.Part.Agg.Add(part.Part.Agg)
	acc.g.Merge(&part.g)
	acc.St = acc.St.Plus(part.St)
	acc.DeltaRows += part.DeltaRows
	acc.Shared.Add(part.Shared)
}

// Member is one batch member's share of one fragment task of a shared
// scan: the work that is logically its own — exactly what the query
// alone would count — and what the batch-mates' reads saved it.
type Member[St any] struct {
	Query  int // index into the batch
	St     St
	Shared SharedScanStats
}

// SharedFold is a backend's fold bound to one Shared call, a pointer to
// its binding B in the call's recycled batch, zeroed after the call.
// Fold folds the base rows of fragment id into slots[k] for every member
// ms[k] of batch needing the fragment — one fold per member over one
// read of it — and counts each member's work into ms[k]; neither slice
// outlives the call.
type SharedFold[S, St, B any] interface {
	*B
	Fold(sc S, id int64, batch []BatchQuery, ms []Member[St], slots []Slot) error
}

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
// place, so that a batch of one needs no slice for its outcome. A
// worker's outcomes live in its call's partial set and are recycled with
// it (exec.Recycler): Reset empties them, keeping the list and the group
// accumulators, and Seal publishes the merged ones.
type Outs[St any] struct {
	n     int // the batch's size; 0 until sized
	first Out[St]
	rest  []Out[St] // the others
}

// size makes room for n outcomes, unless it has been sized.
func (o *Outs[St]) size(n int) {
	if o.n != 0 || n <= 0 {
		return
	}
	if o.n = n; n-1 > cap(o.rest) {
		o.rest = make([]Out[St], n-1)
	}
	o.rest = o.rest[:n-1]
}

// Len returns the number of outcomes: the batch's size.
func (o *Outs[St]) Len() int { return o.n }

// At returns member i's outcome.
func (o *Outs[St]) At(i int) *Out[St] {
	if i == 0 {
		return &o.first
	}
	return &o.rest[i-1]
}

// Seal returns the merged outcomes as a call publishes them: every
// member's groups copied once into a run, the list a copy — nothing of
// it aliases o, which the partial set keeps.
func (o *Outs[St]) Seal() Outs[St] {
	s := Outs[St]{n: o.n, rest: make([]Out[St], max(o.n-1, 0))}
	for i := range o.n {
		out := s.At(i)
		*out = *o.At(i)
		out.Part.Groups, out.g = out.g.Run(), Grouped{}
	}
	return s
}

// Reset empties the outcomes for the next call of the partial set.
func (o *Outs[St]) Reset() {
	for i := range o.n {
		out := o.At(i)
		out.g.reset()
		*out = Out[St]{g: out.g}
	}
	o.n = 0
}

// batch is a Shared call's State in its recycled exec.Call: the plan, the
// backend's fold bound to it, the delta segments folded after it (nil:
// none) and what maps a fragment to its disk. Its methods are the call's
// body (exec.Tasks). Reset keeps its buffers and drops the rest, so a
// kept batch holds no epoch alive.
type batch[S TaskScratch[St], St Counts[St], B any, F SharedFold[S, St, B]] struct {
	BatchPlan
	fold   B
	set    *frag.DeltaSet
	diskOf interface{ DiskOf(id int64) int }
}

// Task runs fragment task ti: it shapes a slot for every member needing
// the fragment, lets the backend fold the base rows into them, folds the
// fragment's delta segments in seal order and adds each slot to its
// member's outcome in outs, the worker's own.
func (b *batch[S, St, B, F]) Task(sc S, outs *Outs[St], ti int) error {
	id := b.at(ti)
	t := sc.sharedTask()
	defer clear(t.slots) // no task's slot outlives it in the scratch
	outs.size(len(b.Queries))
	t.ms, t.slots = t.ms[:0], t.slots[:0]
	for si := range b.Queries {
		if b.Needs(si, id) {
			slot := NewSlot(b.Queries[si].Gr, id)
			if len(slot.PerRow) > 0 {
				slot.Groups = &outs.At(si).g
			}
			t.ms = append(t.ms, Member[St]{Query: si})
			t.slots = append(t.slots, slot)
		}
	}
	if err := F(&b.fold).Fold(sc, id, b.Queries, t.ms, t.slots); err != nil {
		return err
	}
	for k, m := range t.ms {
		slot, mq := &t.slots[k], &b.Queries[m.Query]
		n := slot.addDeltas(b.set, id, mq.ranges)
		addTo(outs.At(m.Query), mq.Gr, slot, m.St, n, m.Shared)
	}
	return nil
}

// Merge adds a worker's outcomes to another's.
func (b *batch[S, St, B, F]) Merge(acc, part *Outs[St]) {
	for i := 0; i < acc.Len(); i++ {
		mergeOuts(acc.At(i), part.At(i))
	}
}

// Shard maps task i to its fragment's disk.
func (b *batch[S, St, B, F]) Shard(i int) int { return b.diskOf.DiskOf(b.at(i)) }

// Reset empties the batch for its next call, keeping the plan's buffers.
func (b *batch[S, St, B, F]) Reset() {
	for i := range b.Queries {
		b.Queries[i] = BatchQuery{Plan: b.Queries[i].Plan[:0], delta: b.Queries[i].delta}
	}
	b.Queries, b.listed, b.spec = b.Queries[:0], false, nil
	b.fold, b.set, b.diskOf = *new(B), nil, nil
}

// Shared runs K queries in one pass over the union of their relevant
// fragments (BatchPlan): one task per fragment feeds every member
// needing it; a lone query is a batch of one. A member's own validation
// error is recorded in its Out.Err; the returned error is batch-wide (an
// execution failure); bind binds the backend's fold to the batch. Each
// worker sums the tasks it runs into outcomes of its own, by batch index,
// recycled with the call (exec.Call) like the plan, the fold's binding
// and the pool job: a warm call allocates only what it returns, the
// grouped members' groupers and rows and a larger batch's outcome list.
func Shared[S TaskScratch[St], St Counts[St], B any, F SharedFold[S, St, B]](ctx context.Context, d Dispatch[S], qs []frag.Query, deltas Deltas, own func(int64) bool,
	bind func(f F, batch []BatchQuery) error) (Outs[St], error) {
	if d.Sched == nil {
		return Outs[St]{}, errNilScheduler
	}
	c := exec.Take[Outs[St], batch[S, St, B, F]](d.Scratch, d.Sched)
	defer c.Give()
	b := &c.State
	if b.plan(d.Star, d.Spec, qs, deltas, own); !deltas.Empty() {
		b.set = deltas.Set
	}
	b.diskOf = d.DiskOf
	if err := bind(&b.fold, b.Queries); err != nil {
		return Outs[St]{}, err
	}
	outs, err := exec.ReduceShardedOn(ctx, c, b.Tasks(), d.Disks, b)
	if err != nil {
		return Outs[St]{}, err
	}
	outs.size(len(qs)) // no fragment to scan
	for i := range b.Queries {
		m, o := &b.Queries[i], outs.At(i)
		if o.Gr, o.Err = m.Gr, m.Err; m.Err == nil {
			o.Shared.Add(SharedScanStats{Batched: len(qs)})
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

// SharedResult is Out with the rows flattened: what the engine's
// ExecuteSharedDeltas returns.
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
