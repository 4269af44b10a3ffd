package exec

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrOverloaded is returned (wrapped) when an execution is refused
// admission because the scheduler's in-flight limit is reached — the
// load-shedding signal: the caller should surface the overload to its
// client rather than queue unboundedly.
var ErrOverloaded = errors.New("exec: scheduler overloaded, execution shed")

// ErrClosed is returned when an execution is submitted after Close.
var ErrClosed = errors.New("exec: scheduler closed")

// Scheduler is the serving layer's admission scheduler: one fixed pool of
// worker goroutines that concurrent query executions share. Each admitted
// execution (one MapOn/ReduceShardedOn call) publishes one job in the
// list of active jobs; a worker picks a job round-robin and claims its
// next task with one atomic add, so M in-flight queries multiplex onto
// the same W workers — and, through the executors' disk-aware task
// bodies, onto the same DiskSet — instead of each spawning a private
// worker set. Tasks from different queries interleave at fragment
// granularity, which fills the idle disk and CPU time that a single
// query's straggler tail and setup leave behind; which worker runs which
// task never shows in a result (see MapOn and ReduceShardedOn), so every
// execution is bit-for-bit identical to running it alone or on a pool
// of one. A call of one task runs on its caller instead (see inline).
//
// A Scheduler is safe for concurrent use. Close stops the workers once
// every published execution has drained; an execution submitted after
// Close fails with ErrClosed.
type Scheduler struct {
	workers int
	wg      sync.WaitGroup
	callers atomic.Uint64 // bit c set: caller slot c is taken

	// jobs is an immutable snapshot of the active jobs: workers read it
	// without a lock; its two writers per call (publish, retire) copy it
	// under mu. Idle workers wait on wake.
	mu     sync.Mutex
	wake   *sync.Cond
	jobs   atomic.Pointer[[]*job]
	closed atomic.Bool // written under mu

	admitted atomic.Int64
	done     atomic.Int64
	inflight atomic.Int64
	peak     atomic.Int64
	tasksRun atomic.Int64
	// limit bounds InFlight (0 = unlimited); admissions beyond it are
	// shed with ErrOverloaded and counted in shed.
	limit atomic.Int64
	shed  atomic.Int64
}

// SchedStats is a snapshot of a scheduler's admission accounting.
type SchedStats struct {
	// Workers is the fixed size of the shared pool.
	Workers int
	// QueriesAdmitted counts executions ever admitted.
	QueriesAdmitted int64
	// QueriesDone counts executions that finished (or failed).
	QueriesDone int64
	// InFlight is the number of executions currently admitted.
	InFlight int64
	// PeakInFlight is the high-water mark of InFlight.
	PeakInFlight int64
	// TasksRun counts fragment tasks run, by the pool or by their callers.
	TasksRun int64
	// AdmitLimit is the in-flight admission bound (0 = unlimited).
	AdmitLimit int64
	// Shed counts executions refused admission with ErrOverloaded.
	Shed int64
}

// NewScheduler starts a shared pool of `workers` goroutines (values below
// 1 mean one per available CPU).
func NewScheduler(workers int) *Scheduler {
	s := &Scheduler{workers: Workers(workers)}
	s.wake = sync.NewCond(&s.mu)
	s.jobs.Store(new([]*job))
	for w := 0; w < s.workers; w++ {
		s.wg.Add(1)
		go s.work(w)
	}
	return s
}

// job is one call on the pool: n positions, claimed one at a time
// through next and counted in done; position k is task order[k] (k
// itself when order is nil), which run(w, i) runs on worker w; fin is
// closed by the worker that finishes the last of them.
type job struct {
	n          int64
	next, done atomic.Int64
	order      []int32
	run        func(w, i int) error
	fin        chan struct{}

	// cutoff is the lowest task index known to have failed: n while
	// none has, -1 once ctx is cancelled. A claimed task runs only when
	// its index is not above the cutoff — so under any claim order every
	// task below the lowest failure runs, and that failure (failed, err),
	// not whichever was noticed first, is the one reported. mu guards
	// the pair and every store to cutoff.
	cutoff atomic.Int64
	mu     sync.Mutex
	failed int
	err    error
}

// runAt runs position k on worker w unless its task is past the cutoff.
func (j *job) runAt(w, k int) {
	i := k
	if j.order != nil {
		i = int(j.order[k])
	}
	if int64(i) > j.cutoff.Load() {
		return
	}
	if err := try(j.run, w, i); err != nil {
		j.stop(i, err)
	}
}

// try runs task i on slot w. A panicking task must poison only its own
// execution, never the shared pool: the panic is recovered into its error.
func try(run func(w, i int) error, w, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exec: task %d panicked: %v", i, r)
		}
	}()
	return run(w, i)
}

// stop lowers the cutoff to i — task i failed with err, or the call was
// cancelled (i = -1, err nil, which keeps the lowest failure so far).
func (j *job) stop(i int, err error) {
	j.mu.Lock()
	if err != nil && (j.err == nil || i < j.failed) {
		j.failed, j.err = i, err
	}
	if int64(i) < j.cutoff.Load() {
		j.cutoff.Store(int64(i))
	}
	j.mu.Unlock()
}

// work is worker w's loop: pick an active job round-robin, claim its
// next position, run it; sleep while there is no job, exit once closed.
func (s *Scheduler) work(w int) {
	defer s.wg.Done()
	for rr := w; ; rr++ {
		jobs := *s.jobs.Load()
		if len(jobs) == 0 {
			s.mu.Lock()
			if len(*s.jobs.Load()) == 0 { // re-checked under mu: no publish is missed
				if s.closed.Load() {
					s.mu.Unlock()
					return
				}
				s.wake.Wait()
			}
			s.mu.Unlock()
			continue
		}
		j := jobs[rr%len(jobs)]
		k := j.next.Add(1) - 1
		if k >= j.n {
			continue // fully claimed; its last claimant is retiring it
		}
		if k == j.n-1 {
			s.retire(j)
		}
		j.runAt(w, int(k))
		if j.done.Add(1) == j.n {
			close(j.fin)
			// Pull workers never block while any job has work, so with
			// a worker per processor the caller just made runnable would
			// wait in a run queue for every other job to drain: yield.
			runtime.Gosched()
		}
	}
}

// publish adds j to the job snapshot and wakes up to one idle worker per
// position; on a closed scheduler it publishes nothing.
func (s *Scheduler) publish(j *job) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	old := *s.jobs.Load()
	jobs := append(old[:len(old):len(old)], j) // a copy: cap == len
	s.jobs.Store(&jobs)
	s.mu.Unlock()
	for i := min(j.n, int64(s.workers)); i > 0; i-- {
		s.wake.Signal()
	}
	return nil
}

// retire removes j from the job snapshot, every position of it claimed,
// and counts its tasks — one add per job, skipped tasks included.
func (s *Scheduler) retire(j *job) {
	s.tasksRun.Add(j.n)
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := slices.DeleteFunc(slices.Clone(*s.jobs.Load()), func(o *job) bool { return o == j })
	s.jobs.Store(&jobs)
}

// callerSlots bounds the one-task calls running on their callers at once.
// A caller runs only its own call's single task, in place of a worker: one
// that helped with longer calls would run a task beyond the pool's size,
// one more outstanding I/O on a disk.
const callerSlots = 8

// inline runs a one-task call on its caller — no job, no wake-up, no
// hand-back — in a free caller slot c, run(c, acc) folding the task into
// acc. With n != 1 or every slot taken it does nothing (ran is false).
// Admission, ErrClosed, cancellation, panics and TasksRun are the pool's.
func inline[A any](ctx context.Context, s *Scheduler, n int, run func(c int, acc *A) error) (acc A, ran bool, err error) {
	c := -1
	for m := s.callers.Load(); n == 1 && c < 0 && m != 1<<callerSlots-1; m = s.callers.Load() {
		if bit := ^m & (m + 1); s.callers.CompareAndSwap(m, m|bit) { // the lowest free slot
			c = bits.TrailingZeros64(bit)
		}
	}
	if c < 0 {
		return acc, false, nil
	}
	defer s.callers.Add(-(1 << c)) // clears bit c, set by this call alone
	if err = s.admit(); err != nil {
		return acc, true, err
	}
	defer s.release()
	p := new(A)
	switch {
	case s.closed.Load():
		err = ErrClosed
	case ctx.Err() != nil:
		err = ctx.Err()
	default:
		s.tasksRun.Add(1)
		if err = try(func(c, _ int) error { return run(c, p) }, c, 0); err == nil {
			err = ctx.Err()
		}
	}
	if err == nil {
		acc = *p
	}
	return acc, true, err
}

// Workers returns the fixed pool size.
func (s *Scheduler) Workers() int { return s.workers }

// Stats snapshots the admission accounting.
func (s *Scheduler) Stats() SchedStats {
	return SchedStats{
		Workers:         s.workers,
		QueriesAdmitted: s.admitted.Load(),
		QueriesDone:     s.done.Load(),
		InFlight:        s.inflight.Load(),
		PeakInFlight:    s.peak.Load(),
		TasksRun:        s.tasksRun.Load(),
		AdmitLimit:      s.limit.Load(),
		Shed:            s.shed.Load(),
	}
}

// SetLimit bounds the number of concurrently admitted executions:
// admissions beyond n are refused with ErrOverloaded instead of queued.
// Zero (the default) removes the bound. Safe to call at any time; the
// new bound applies to subsequent admissions.
func (s *Scheduler) SetLimit(n int) {
	if n < 0 {
		n = 0
	}
	s.limit.Store(int64(n))
}

// Close stops the pool's workers after the tasks of every published
// execution have drained, and returns once they have exited. An execution
// submitted after Close fails with ErrClosed; one submitted concurrently
// either runs to completion or fails with it.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed.Store(true)
	s.wake.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// admit registers one execution, or sheds it with ErrOverloaded when the
// in-flight limit is reached; release undoes an admission.
func (s *Scheduler) admit() error {
	for {
		in := s.inflight.Load()
		if lim := s.limit.Load(); lim > 0 && in >= lim {
			s.shed.Add(1)
			return ErrOverloaded
		}
		if s.inflight.CompareAndSwap(in, in+1) {
			in++
			s.admitted.Add(1)
			for {
				p := s.peak.Load()
				if in <= p || s.peak.CompareAndSwap(p, in) {
					return nil
				}
			}
		}
	}
}

func (s *Scheduler) release() {
	s.inflight.Add(-1)
	s.done.Add(1)
}

// MapOn runs fn(sc, i) for every i in [0, n) on the scheduler's pool and
// returns the results in index order — the ordered gather, for results
// that do not commute, at the price of a slot per task. The call
// publishes one job whose n tasks the pool's workers claim one at a
// time, interleaved with the tasks of every other execution admitted,
// and owns its scratch: newScratch builds at most one per pool worker,
// and a task has the one it is passed to itself while it runs. fn must
// be safe for concurrent invocation with distinct scratch values. A call
// of one task runs on its caller when a caller slot is free.
//
// Error propagation is deterministic: if several tasks fail, the error of
// the lowest task index is returned. Once any task has failed no task of
// a higher index is started, and once ctx is cancelled none is; tasks
// already running run to completion. On a non-nil error the partial
// results are withheld (a nil slice is returned) so callers cannot
// mistake a partial gather for a complete one. A panicking task fails its
// own call with an error naming the task; the pool and every other
// execution on it are unaffected.
func MapOn[S, T any](ctx context.Context, s *Scheduler, n int, newScratch func() S, fn func(sc S, i int) (T, error)) ([]T, error) {
	if r, ran, err := inline(ctx, s, n, func(_ int, r *T) (err error) {
		*r, err = fn(newScratch(), 0)
		return err
	}); ran {
		if err != nil {
			return nil, err
		}
		return []T{r}, nil
	}
	// Storing result i in slot i commutes: a reduce whose per-worker
	// partial is the worker's scratch for the call, with nothing to merge.
	results := make([]T, max(n, 0))
	ws := make([]worker[slot[S]], s.workers)
	_, err := reduce(ctx, s, n, nil, ws, func(w, i int) (err error) {
		own := &ws[w].acc
		results[i], err = fn(own.take(newScratch), i)
		own.ok = true
		return err
	}, func(_, _ *slot[S]) {})
	if err != nil || n <= 0 {
		return nil, err
	}
	return results, nil
}

// Scratch is a store's worker scratch — the buffers its fragment tasks
// reuse — in a slot per pool worker and per caller slot, each on a cache
// line of its own. Each epoch's backend holds it and a compaction hands
// it on, so a task of a ReduceShardedOn call on worker w reuses what w's
// earlier tasks of every epoch built: one scratch per worker, taken with
// no lock and no atomic another worker takes. Each scheduler a list
// serves gets slots of its own at its first call (those of closed ones
// are dropped then), so no scratch is ever in two tasks. A scratch must
// not keep the epoch it last served alive. Not a sync.Pool, which the
// collector empties when it pleases: allocation per query must repeat.
// The list also keeps finished calls' partials, zeroed, for reuse.
type Scratch[S any] struct {
	build func() S
	mu    sync.Mutex
	slots map[*Scheduler]*scratchSet[S]
}

// scratchSet is one scheduler's share of a list: slot w is pool worker
// w's, slot workers+c caller slot c's; idle holds *partials[A] values.
type scratchSet[S any] struct {
	slots []paddedSlot[S]
	idle  []any
}

// paddedSlot keeps neighbouring workers' slots off one cache line.
type paddedSlot[S any] struct {
	slot[S]
	_ [64]byte
}

// slot is one worker's scratch. take hands it out, building it when
// there is none, and marks the slot empty until the task returns and
// sets ok again: a task that panics never does, so the worker's next
// task builds a new one, as its first does.
type slot[S any] struct {
	sc S
	ok bool
}

func (sl *slot[S]) take(build func() S) S {
	if !sl.ok {
		sl.sc = build()
	}
	sl.ok = false
	return sl.sc
}

// NewScratch returns an empty list whose scratches build makes.
func NewScratch[S any](build func() S) *Scratch[S] {
	return &Scratch[S]{build: build, slots: make(map[*Scheduler]*scratchSet[S])}
}

// of returns s's share of the list (l.mu held), adding it on s's first
// call and dropping those of closed schedulers.
func (l *Scratch[S]) of(s *Scheduler) *scratchSet[S] {
	set, ok := l.slots[s]
	if !ok {
		maps.DeleteFunc(l.slots, func(o *Scheduler, _ *scratchSet[S]) bool { return o.closed.Load() })
		set = &scratchSet[S]{slots: make([]paddedSlot[S], s.workers+callerSlots)}
		l.slots[s] = set
	}
	return set
}

// worker is pool worker w's share of one call; only that worker's
// goroutine touches it until the job has finished.
type worker[A any] struct {
	acc A
	ran bool // a task of the call ran here: acc is part of the result
}

// partials is a pooled call's partial per worker and claim order buffer.
type partials[A any] struct {
	ws    []worker[A]
	order []int32
}

// takePartials returns s's share of l and idle partials for a call on s.
func takePartials[S, A any](l *Scratch[S], s *Scheduler) (*scratchSet[S], *partials[A]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	set := l.of(s)
	if k := len(set.idle) - 1; k >= 0 {
		if p, ok := set.idle[k].(*partials[A]); ok {
			set.idle = set.idle[:k]
			return set, p
		}
	}
	return set, &partials[A]{ws: make([]worker[A], s.workers)}
}

// givePartials zeroes p, its call's merged value copied out, for reuse.
func givePartials[S, A any](l *Scratch[S], set *scratchSet[S], p *partials[A]) {
	clear(p.ws)
	l.mu.Lock()
	set.idle = append(set.idle, p)
	l.mu.Unlock()
}

// ReduceShardedOn runs fn(sc, acc, i) for every i in [0, n) on the
// scheduler's pool and returns the merged partials — the reduce for
// commutative merges, which costs nothing per task: each pool worker
// folds the tasks it runs into its own partial (*acc, at first A's zero
// value) and the caller merges one partial per worker. Which tasks meet
// in which partial depends on scheduling, so the result is identical at
// every pool size, shard layout and admission mix exactly when fn's
// folding and merge commute and associate, as sums and maxima per key
// do; a merge that needs task order belongs on MapOn. A task uses the
// scratch of its worker's slot in the backend's list, with or without an
// error — except one it panicked on, whose state nobody knows: that one
// is dropped and the worker builds another. A call of one task runs on
// its caller, with the scratch of its caller slot, when one is free.
//
// With shards > 1 the tasks are claimed round-robin across their shards
// (typically the disk of each task's fragment, taken modulo shards), so
// the first tasks running spread over distinct disks instead of
// convoying on one queue. Admission, interleaving, the lowest failing
// index winning, cancellation and panics are MapOn's; on an error the
// partials are withheld and A's zero value is returned.
func ReduceShardedOn[S, A any](ctx context.Context, s *Scheduler, n int, shardOf func(i int) int, shards int,
	scratch *Scratch[S], fn func(sc S, acc *A, i int) error, merge func(acc, part *A)) (A, error) {
	if acc, ran, err := inline(ctx, s, n, func(c int, acc *A) error {
		scratch.mu.Lock()
		own := &scratch.of(s).slots[s.workers+c].slot
		scratch.mu.Unlock()
		err := fn(own.take(scratch.build), acc, 0)
		own.ok = true
		return err
	}); ran {
		return acc, err
	}
	set, ps := takePartials[S, A](scratch, s)
	acc, err := reduce(ctx, s, n, shardOrder(&ps.order, n, shardOf, shards), ps.ws, func(w, i int) error {
		me, own := &ps.ws[w], &set.slots[w].slot
		me.ran = true
		err := fn(own.take(scratch.build), &me.acc, i)
		own.ok = true
		return err
	}, merge)
	givePartials(scratch, set, ps)
	return acc, err
}

// reduce runs the call whose task i run runs on worker w, claimed in
// order (task order when nil), and merges the partials ws of the workers
// that ran one.
func reduce[A any](ctx context.Context, s *Scheduler, n int, order []int32,
	ws []worker[A], run func(w, i int) error, merge func(acc, part *A)) (A, error) {
	var zero A
	if n <= 0 {
		return zero, ctx.Err()
	}
	if err := s.admit(); err != nil {
		return zero, err
	}
	defer s.release()
	j := &job{n: int64(n), order: order, fin: make(chan struct{}), run: run}
	j.cutoff.Store(int64(n))
	if err := s.publish(j); err != nil {
		return zero, err
	}
	// Wait for the last claimed task also after a failure or a
	// cancellation: nothing of the call runs once it has returned.
	select {
	case <-j.fin:
	case <-ctx.Done():
		j.stop(-1, nil)
		<-j.fin
	}
	err := j.err
	if err == nil {
		err = ctx.Err()
	}
	var acc *A
	for w := range ws {
		me := &ws[w]
		if !me.ran || err != nil {
			continue
		}
		if acc == nil {
			acc = &me.acc
		} else {
			merge(acc, &me.acc)
		}
	}
	if acc == nil {
		return zero, err
	}
	return *acc, err
}

// shardOrder returns the claim order that interleaves the shards' tasks
// round-robin, each shard's in task order; nil when there is one shard.
// It is built in *buf, which grows when it is too small.
func shardOrder(buf *[]int32, n int, shardOf func(i int) int, shards int) []int32 {
	if shards <= 1 || n <= 1 {
		return nil
	}
	shard := func(i int) int { return (shardOf(i)%shards + shards) % shards }
	// A counting sort in one buffer: the order, the tasks bucketed by
	// shard, and where each shard's bucket ends.
	if size := 2*n + shards + 1; cap(*buf) < size {
		*buf = make([]int32, size)
	}
	order, bucketed, end := (*buf)[:0:n], (*buf)[n:2*n], (*buf)[2*n:2*n+shards+1]
	clear(end)
	for i := 0; i < n; i++ {
		end[shard(i)+1]++
	}
	for k := 0; k < shards; k++ {
		end[k+1] += end[k] // for now, where shard k's bucket starts
	}
	for i := 0; i < n; i++ {
		k := shard(i)
		bucketed[end[k]] = int32(i)
		end[k]++
	}
	for r := int32(0); len(order) < n; r++ {
		start := int32(0)
		for k := 0; k < shards; k++ {
			if start+r < end[k] {
				order = append(order, bucketed[start+r])
			}
			start = end[k]
		}
	}
	return order
}
