package exec

import (
	"context"
	"errors"
	"fmt"
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
// of one.
//
// A Scheduler is safe for concurrent use. Close stops the workers once
// every published execution has drained; an execution submitted after
// Close fails with ErrClosed.
type Scheduler struct {
	workers int
	wg      sync.WaitGroup

	// jobs is an immutable snapshot of the active jobs: workers read it
	// without a lock; its two writers per call (publish, retire) copy it
	// under mu. Idle workers wait on wake.
	mu     sync.Mutex
	wake   *sync.Cond
	jobs   atomic.Pointer[[]*job]
	closed bool

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
	// TasksRun counts fragment tasks executed by the pool.
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
	// A panicking task must poison only its own execution, never the
	// shared pool: recover it into the call's error.
	defer func() {
		if r := recover(); r != nil {
			j.stop(i, fmt.Errorf("exec: task %d panicked: %v", i, r))
		}
	}()
	if err := j.run(w, i); err != nil {
		j.stop(i, err)
	}
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
				if s.closed {
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
	if s.closed {
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
	s.closed = true
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
// be safe for concurrent invocation with distinct scratch values.
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
	// Storing result i in slot i commutes: a reduce over a scratch list
	// that lives for the call, with nothing to merge.
	results := make([]T, max(n, 0))
	_, err := ReduceShardedOn(ctx, s, n, nil, 1, NewScratch(newScratch),
		func(sc S, _ *struct{}, i int) (err error) {
			results[i], err = fn(sc, i)
			return err
		}, func(_, _ *struct{}) {})
	if err != nil || n <= 0 {
		return nil, err
	}
	return results, nil
}

// Scratch is a store's free list of worker scratch — the buffers its
// fragment tasks reuse. Each epoch's backend holds it, a compaction hands
// it to the next epoch's, and a task of a ReduceShardedOn call borrows
// from it for as long as it runs, so the buffers are built once per
// store and serve every later call of every epoch. A scratch must not
// keep the epoch it last served alive. A worker runs one task at a time,
// and old- and new-epoch tasks share one scheduler, so however many
// calls are in flight no more scratches are out than the pool has
// workers, and none of them is ever surplus: a scratch held for a whole
// call sat idle while its worker ran another call's task on a second
// one, and what came back beyond one per worker was dropped and built
// again — as often as the calls happened to overlap. A plain list, not
// a sync.Pool, which the collector empties when it pleases: allocation
// per query must repeat.
type Scratch[S any] struct {
	build func() S
	mu    sync.Mutex
	idle  []S
}

// NewScratch returns an empty free list whose scratches build makes.
func NewScratch[S any](build func() S) *Scratch[S] { return &Scratch[S]{build: build} }

func (l *Scratch[S]) take() S {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return l.build()
	}
	sc := l.idle[n-1]
	l.idle = l.idle[:n-1]
	return sc
}

// give returns sc to the list, or drops it when keep are idle already.
func (l *Scratch[S]) give(sc S, keep int) {
	l.mu.Lock()
	if len(l.idle) < keep {
		l.idle = append(l.idle, sc)
	}
	l.mu.Unlock()
}

// worker is pool worker w's share of one ReduceShardedOn call; only that
// worker's goroutine touches it until the job has finished.
type worker[A any] struct {
	acc A
	ran bool // a task of the call ran here: acc is part of the result
}

// ReduceShardedOn runs fn(sc, acc, i) for every i in [0, n) on the
// scheduler's pool and returns the merged partials — the reduce for
// commutative merges, which costs nothing per task: each pool worker
// folds the tasks it runs into its own partial (*acc, at first A's zero
// value) and the caller merges one partial per worker. Which tasks meet
// in which partial depends on scheduling, so the result is identical at
// every pool size, shard layout and admission mix exactly when fn's
// folding and merge commute and associate, as sums and maxima per key
// do; a merge that needs task order belongs on MapOn. A task takes its
// scratch from the backend's list and gives it back when it returns,
// with or without an error — except one it panicked on, whose state
// nobody knows: that one is dropped.
//
// With shards > 1 the tasks are claimed round-robin across their shards
// (typically the disk of each task's fragment, taken modulo shards), so
// the first tasks running spread over distinct disks instead of
// convoying on one queue. Admission, interleaving, the lowest failing
// index winning, cancellation and panics are MapOn's; on an error the
// partials are withheld and A's zero value is returned.
func ReduceShardedOn[S, A any](ctx context.Context, s *Scheduler, n int, shardOf func(i int) int, shards int,
	scratch *Scratch[S], fn func(sc S, acc *A, i int) error, merge func(acc, part *A)) (A, error) {
	var zero A
	if n <= 0 {
		return zero, ctx.Err()
	}
	if err := s.admit(); err != nil {
		return zero, err
	}
	defer s.release()
	ws := make([]worker[A], s.workers)
	j := &job{n: int64(n), order: shardOrder(n, shardOf, shards), fin: make(chan struct{})}
	j.cutoff.Store(int64(n))
	j.run = func(w, i int) error {
		me := &ws[w]
		me.ran = true
		sc := scratch.take()
		err := fn(sc, &me.acc, i)
		scratch.give(sc, s.workers)
		return err
	}
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
	acc := &zero
	for w := range ws {
		me := &ws[w]
		if !me.ran || err != nil {
			continue
		}
		if acc == &zero {
			acc = &me.acc
		} else {
			merge(acc, &me.acc)
		}
	}
	return *acc, err
}

// shardOrder returns the claim order that interleaves the shards' tasks
// round-robin, each shard's in task order; nil when there is one shard.
func shardOrder(n int, shardOf func(i int) int, shards int) []int32 {
	if shards <= 1 || n <= 1 {
		return nil
	}
	shard := func(i int) int { return (shardOf(i)%shards + shards) % shards }
	// A counting sort in the one buffer a call pays for: the order, the
	// tasks bucketed by shard, and where each shard's bucket ends.
	buf := make([]int32, 2*n+shards+1)
	order, bucketed, end := buf[:0:n], buf[n:2*n], buf[2*n:]
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
