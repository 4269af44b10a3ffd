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

// shardOf maps task i to the disk of its fragment fs.at(i).
func (d Dispatch[S]) shardOf(fs fragments) func(i int) int {
	if d.Disks <= 1 {
		return nil
	}
	disk := d.DiskOf
	return func(i int) int { return disk.DiskOf(fs.at(i)) }
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
	fs := fragments{spec: d.Spec, r: d.Spec.Relevant(q)}
	n := int(fs.r.Count())
	if own != nil { // a node's share: the fragments it owns, listed
		for i := 0; i < n; i++ {
			if id := fs.spec.FragmentAt(fs.r, int64(i)); own(id) {
				fs.ids = append(fs.ids, id)
			}
		}
		n = len(fs.ids)
	}
	ranges := deltas.ranges(q)
	// Each worker sums the fragments it runs into an outcome of its own:
	// sums per key commute, so who ran which fragment does not show. A
	// fragment's delta segments fold after its base rows, in its own task.
	run := func(sc S, acc *Out[St], i int) error {
		id := fs.at(i)
		slot := NewSlot(gr, id)
		fp, st, err := fold(sc, id, q, slot)
		if err != nil {
			return err
		}
		slot.FP = fp
		n := slot.addDeltas(deltas, id, ranges)
		addTo(acc, gr, slot.FP, st.WithDeltaRows(n), SharedScanStats{})
		return nil
	}
	out, err := exec.ReduceShardedOn(ctx, d.Sched, n, d.shardOf(fs), d.Disks, d.Scratch, run, mergeOuts[St])
	if err != nil {
		return Out[St]{}, err
	}
	addTo(&out, gr, FragPartial{}, *new(St), SharedScanStats{}) // with no fragment at all, still the grouper and empty groups
	return out, nil
}

// fragments are the fragments of a call's tasks: the i-th is computed
// from a query's region, in ForEachFragment's order, unless they are
// listed in ids (a node's share, a shared scan's union).
type fragments struct {
	spec *frag.Spec
	r    frag.Region
	ids  []int64
}

func (f fragments) at(i int) int64 {
	if f.ids != nil {
		return f.ids[i]
	}
	return f.spec.FragmentAt(f.r, int64(i))
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
// member ms[k] needing the fragment — K solo folds over one read of it —
// and counts each member's work into ms[k]. Neither slice outlives the
// call.
type SharedFold[S, St any] func(sc S, id int64, ms []Member[St], slots []Slot) error

// SharedTask is a shared scan's per-task buffers, the running task's
// members and their slots. Each backend's shared worker scratch embeds
// one, so that they are reused from task to task and call to call.
type SharedTask[St any] struct {
	ms    []Member[St]
	slots []Slot
}

func (t *SharedTask[St]) sharedTask() *SharedTask[St] { return t }

// TaskScratch is a worker scratch that embeds a SharedTask.
type TaskScratch[St any] interface{ sharedTask() *SharedTask[St] }

// Shared runs K queries in one pass over the union of their relevant
// fragments (PlanBatch): one task per fragment feeds every member
// needing it. Every outcome is byte-identical to the member's Solo run;
// the error is batch-wide, so every member can fall back to Solo. Each
// worker sums the tasks it runs into an outcome array of its own, by
// batch index; nothing else is allocated per task.
func Shared[S TaskScratch[St], St Counts[St]](ctx context.Context, d Dispatch[S], qs []frag.Query, deltas Deltas, own func(int64) bool,
	bind func([]BatchQuery) (SharedFold[S, St], error)) ([]Out[St], error) {
	if d.Sched == nil {
		return nil, errNilScheduler
	}
	plan := PlanBatch(d.Star, d.Spec, qs, deltas, own)
	fold, err := bind(plan.Queries)
	if err != nil {
		return nil, err
	}
	run := func(sc S, outs *[]Out[St], ti int) error {
		id := plan.IDs[ti]
		t := sc.sharedTask()
		defer clear(t.slots) // no task's partial outlives it in the scratch
		t.ms, t.slots = t.ms[:0], t.slots[:0]
		for si := range plan.Queries {
			if plan.Needs(si, ti) {
				t.ms = append(t.ms, Member[St]{Query: si})
				t.slots = append(t.slots, NewSlot(plan.Queries[si].Gr, id))
			}
		}
		if err := fold(sc, id, t.ms, t.slots); err != nil {
			return err
		}
		if *outs == nil {
			*outs = make([]Out[St], len(qs))
		}
		for k, m := range t.ms {
			slot, mq := &t.slots[k], &plan.Queries[m.Query]
			n := slot.addDeltas(deltas, id, mq.ranges)
			addTo(&(*outs)[m.Query], mq.Gr, slot.FP, m.St.WithDeltaRows(n), m.Shared)
		}
		return nil
	}
	merge := func(acc, part *[]Out[St]) {
		for i := range *acc {
			mergeOuts(&(*acc)[i], &(*part)[i])
		}
	}
	outs, err := exec.ReduceShardedOn(ctx, d.Sched, len(plan.IDs), d.shardOf(fragments{ids: plan.IDs}), d.Disks, d.Scratch, run, merge)
	if err != nil {
		return nil, err
	}
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
