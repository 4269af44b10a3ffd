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
// next task with one compare-and-swap, so M in-flight queries multiplex onto
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

	// jobs is an immutable snapshot of the active jobs' uses: workers
	// read it without a lock; its two writers per call (publish, retire)
	// copy it under mu — retire to the shared empty one when it removes
	// the last. Idle workers wait on wake.
	mu     sync.Mutex
	wake   *sync.Cond
	jobs   atomic.Pointer[[]jobUse]
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
	s.jobs.Store(&noJobs)
	for w := 0; w < s.workers; w++ {
		s.wg.Add(1)
		go s.work(w)
	}
	return s
}

var noJobs []jobUse // the empty snapshot; nothing ever writes to it

// job is a call's task set on the pool, reused with the call (Call). Each
// use is a generation, held in claim's high half beside the use's next
// position (jobUse.claim). Position k is task order[k] (k itself when
// order is nil), which run.run(w, i) runs on worker w; the worker that
// finishes the last signals fin, a channel of capacity 1 made with the job.
type job struct {
	claim atomic.Uint64
	done  atomic.Int64
	order []int32
	run   runner
	fin   chan struct{}

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

// runner runs task i in scratch slot w (a caller slot's at workers+c).
type runner interface{ run(w, i int) error }

// jobUse is a use of a job as the snapshot lists it.
type jobUse struct {
	j   *job
	gen uint32
	n   int64
}

// begin readies j, idle, for a use of n positions.
func (j *job) begin(n int, order []int32, r runner) jobUse {
	j.order, j.run = order, r
	j.done.Store(0)
	j.cutoff.Store(int64(n))
	j.failed, j.err = 0, nil
	gen := uint32(j.claim.Load()>>32) + 1
	j.claim.Store(uint64(gen) << 32) // last: a claim of this use sees every field above
	return jobUse{j: j, gen: gen, n: int64(n)}
}

// claim claims the use's next position by a compare-and-swap that checks
// its generation, so an entry of a stale snapshot never claims a position
// of a later use: false once every position is claimed, or on a lost race.
func (u jobUse) claim() (int64, bool) {
	c := u.j.claim.Load()
	k := int64(uint32(c))
	return k, uint32(c>>32) == u.gen && k < u.n && u.j.claim.CompareAndSwap(c, c+1)
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
func try(r runner, w, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exec: task %d panicked: %v", i, p)
		}
	}()
	return r.run(w, i)
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
		u := jobs[rr%len(jobs)]
		k, ok := u.claim()
		if !ok {
			continue // fully claimed (its last claimant retiring it), reused since or lost to another claim
		}
		if k == u.n-1 {
			s.retire(u)
		}
		u.j.runAt(w, int(k))
		if u.j.done.Add(1) == u.n {
			u.j.fin <- struct{}{}
			// Pull workers never block while any job has work, so with
			// a worker per processor the caller just made runnable would
			// wait in a run queue for every other job to drain: yield.
			runtime.Gosched()
		}
	}
}

// publish adds use u to the job snapshot and wakes up to one idle worker
// per position; on a closed scheduler it publishes nothing.
func (s *Scheduler) publish(u jobUse) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	old := *s.jobs.Load()
	jobs := append(old[:len(old):len(old)], u) // a copy: cap == len
	s.jobs.Store(&jobs)
	s.mu.Unlock()
	for i := min(u.n, int64(s.workers)); i > 0; i-- {
		s.wake.Signal()
	}
	return nil
}

// retire removes use u from the job snapshot, every position of it
// claimed, and counts its tasks — one add per use, skipped tasks
// included. The last use out leaves the shared empty snapshot.
func (s *Scheduler) retire(u jobUse) {
	s.tasksRun.Add(u.n)
	s.mu.Lock()
	defer s.mu.Unlock()
	next := &noJobs
	if old := *s.jobs.Load(); len(old) > 1 {
		jobs := slices.DeleteFunc(slices.Clone(old), func(o jobUse) bool { return o.j == u.j })
		next = &jobs
	}
	s.jobs.Store(next)
}

// callerSlots bounds the one-task calls running on their callers at once.
// A caller runs only its own call's single task, in place of a worker: one
// that helped with longer calls would run a task beyond the pool's size,
// one more outstanding I/O on a disk.
const callerSlots = 8

// inline runs a one-task call on its caller — no job, no wake-up, no
// hand-back — in a free caller slot c, running r.run(workers+c, 0). With
// n != 1 or every slot taken it does nothing (ran is false). Admission,
// ErrClosed, cancellation, panics and TasksRun are the pool's.
func inline(ctx context.Context, s *Scheduler, n int, r runner) (ran bool, err error) {
	c := -1
	for m := s.callers.Load(); n == 1 && c < 0 && m != 1<<callerSlots-1; m = s.callers.Load() {
		if bit := ^m & (m + 1); s.callers.CompareAndSwap(m, m|bit) { // the lowest free slot
			c = bits.TrailingZeros64(bit)
		}
	}
	if c < 0 {
		return false, nil
	}
	defer s.callers.Add(-(1 << c)) // clears bit c, set by this call alone
	if err = s.admit(); err != nil {
		return true, err
	}
	defer s.release()
	switch {
	case s.closed.Load():
		err = ErrClosed
	case ctx.Err() != nil:
		err = ctx.Err()
	default:
		s.tasksRun.Add(1)
		if err = try(r, s.workers+c, 0); err == nil {
			err = ctx.Err()
		}
	}
	return true, err
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
	// Storing result i in slot i commutes: a reduce with nothing to merge,
	// on a scratch list of the call's own.
	g := &gather[S, T]{results: make([]T, max(n, 0)), fn: fn}
	if _, err := ReduceShardedOn(ctx, Take[struct{}, struct{}](NewScratch(newScratch), s), n, 1, g); err != nil || n <= 0 {
		return nil, err
	}
	return g.results, nil
}

// gather is a MapOn call's body.
type gather[S, T any] struct {
	results []T
	fn      func(sc S, i int) (T, error)
}

func (g *gather[S, T]) Task(sc S, _ *struct{}, i int) (err error) {
	g.results[i], err = g.fn(sc, i)
	return err
}

func (g *gather[S, T]) Merge(_, _ *struct{}) {}
func (g *gather[S, T]) Shard(int) int        { return 0 }

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
// The list also keeps finished calls' recycled state (Call) — a partial
// per worker, the claim order, the pool job and the caller's own plan of
// the call — emptied, for reuse: a warm call allocates none of it.
type Scratch[S any] struct {
	build func() S
	mu    sync.Mutex
	slots map[*Scheduler]*scratchSet[S]
}

// scratchSet is one scheduler's share of a list: slot w is pool worker
// w's, slot workers+c caller slot c's; idle holds *Call[S, A, C] values.
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

// Tasks is a ReduceShardedOn call's body, a pointer into the call's State
// so that a call binds no closure: Task folds task i into acc, the running
// worker's partial, with its scratch; Merge adds a partial to acc.
type Tasks[S, A any] interface {
	Task(sc S, acc *A, i int) error
	Merge(acc, part *A)
	Shard(i int) int
}

// Call is one ReduceShardedOn call's recycled state, which the scratch
// list keeps between calls: a partial per pool worker (the caller's in
// the first on a call run inline), the claim order buffer, the pool job
// and State, the caller's plan of the call, which Give empties with its
// Reset when *C has one.
type Call[S, A, C any] struct {
	State C

	l     *Scratch[S]
	s     *Scheduler
	set   *scratchSet[S]
	ws    []worker[A]
	order []int32
	job   job
	t     Tasks[S, A] // the running call's body
}

// Recycler is a partial that keeps its buffers in its call's partial set
// from call to call. Seal returns the merged partial as the call returns
// it, owning nothing the set keeps; Reset empties a partial for the next
// call. A partial that is not a Recycler is copied out and zeroed.
type Recycler[A any] interface {
	Seal() A
	Reset()
}

// Take returns an idle call of l's share for s, or a new one.
func Take[A, C, S any](l *Scratch[S], s *Scheduler) *Call[S, A, C] {
	l.mu.Lock()
	defer l.mu.Unlock()
	set := l.of(s)
	if k := len(set.idle) - 1; k >= 0 {
		if c, ok := set.idle[k].(*Call[S, A, C]); ok {
			set.idle = set.idle[:k]
			return c
		}
	}
	return &Call[S, A, C]{l: l, s: s, set: set, ws: make([]worker[A], s.workers), job: job{fin: make(chan struct{}, 1)}}
}

// Give empties the call and hands it back; no task of it may be running.
func (c *Call[S, A, C]) Give() {
	for w := range c.ws {
		if me := &c.ws[w]; me.ran {
			if r, ok := any(&me.acc).(Recycler[A]); ok {
				r.Reset()
			} else {
				me.acc = *new(A)
			}
			me.ran = false
		}
	}
	if r, ok := any(&c.State).(interface{ Reset() }); ok {
		r.Reset()
	}
	c.t = nil
	c.l.mu.Lock()
	c.set.idle = append(c.set.idle, c)
	c.l.mu.Unlock()
}

// run runs task i in scratch slot w: pool worker w's, folded into its
// partial, or a caller slot's, folded into the first.
func (c *Call[S, A, C]) run(w, i int) error {
	me, own := &c.ws[0], &c.set.slots[w].slot
	if w < len(c.ws) {
		me = &c.ws[w]
	}
	me.ran = true
	err := c.t.Task(own.take(c.l.build), &me.acc, i)
	own.ok = true
	return err
}

// ReduceShardedOn runs t.Task(sc, acc, i) for every i in [0, n) on the
// pool of c's scheduler and returns the merged partials — the reduce for
// commutative merges, which costs nothing per task: each pool worker
// folds the tasks it runs into its own partial (*acc, at first empty)
// and the caller merges one partial per worker. Which tasks meet in
// which partial depends on scheduling, so the result is identical at
// every pool size, shard layout and admission mix exactly when the
// folding and t.Merge commute and associate, as sums and maxima per key
// do; a merge that needs task order belongs on MapOn. The partials, the
// claim order and the job are c's, which its scratch list keeps from
// call to call: a Recycler keeps its buffers there, sealed before c goes
// back. A task uses the scratch of its worker's slot in the list, with
// or without an error — except one it panicked on, whose state nobody
// knows: that one is dropped and the worker builds another. A call of
// one task runs on its caller, with the scratch of its caller slot, when
// one is free.
//
// With shards > 1 the tasks are claimed round-robin across their shards
// (t.Shard, typically the disk of each task's fragment, taken modulo
// shards), so the first tasks running spread over distinct disks instead
// of convoying on one queue. Admission, interleaving, the lowest failing
// index winning, cancellation and panics are MapOn's; on an error the
// partials are withheld and A's zero value is returned.
func ReduceShardedOn[S, A, C any](ctx context.Context, c *Call[S, A, C], n, shards int, t Tasks[S, A]) (A, error) {
	c.t = t
	ran, err := inline(ctx, c.s, n, c)
	if !ran && n > 0 {
		err = c.dispatch(ctx, n, shards)
	} else if !ran {
		err = ctx.Err()
	}
	var acc *A
	for w := 0; err == nil && w < len(c.ws); w++ {
		if me := &c.ws[w]; me.ran && acc == nil {
			acc = &me.acc
		} else if me.ran {
			t.Merge(acc, &me.acc)
		}
	}
	if err != nil || acc == nil {
		return *new(A), err
	}
	if r, ok := any(acc).(Recycler[A]); ok {
		return r.Seal(), nil
	}
	return *acc, nil
}

// dispatch runs the call's n tasks on the pool, a use of its job, and
// returns the call's error once no task of it runs.
func (c *Call[S, A, C]) dispatch(ctx context.Context, n, shards int) error {
	s, j := c.s, &c.job
	if err := s.admit(); err != nil {
		return err
	}
	defer s.release()
	if err := s.publish(j.begin(n, shardOrder(&c.order, n, c.t, shards), c)); err != nil {
		return err
	}
	// Wait for the last claimed task also after a failure or a
	// cancellation: nothing of the call runs once it has returned.
	select {
	case <-j.fin:
	case <-ctx.Done():
		j.stop(-1, nil)
		<-j.fin
	}
	if j.err != nil {
		return j.err
	}
	return ctx.Err()
}

// shardOrder returns the claim order that interleaves the shards' tasks
// round-robin, each shard's in task order; nil when there is one shard.
// It is built in *buf, which grows when it is too small.
func shardOrder(buf *[]int32, n int, t interface{ Shard(i int) int }, shards int) []int32 {
	if shards <= 1 || n <= 1 {
		return nil
	}
	shard := func(i int) int { return (t.Shard(i)%shards + shards) % shards }
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
