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
// query's straggler tail and setup leave behind; per-query results are
// still gathered in task index order, so every execution is bit-for-bit
// identical to running it alone or on a pool of one.
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

// job is one MapOn call on the pool: n positions, claimed one at a time
// through next and counted in done; run(w, k) runs position k on worker
// w; fin is closed by the worker that finishes the last of them.
type job struct {
	n          int64
	next, done atomic.Int64
	run        func(w, k int)
	fin        chan struct{}
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
		j.run(w, int(k))
		s.tasksRun.Add(1)
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

// retire removes j from the job snapshot.
func (s *Scheduler) retire(j *job) {
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

// admit registers one execution and returns its release func, or sheds
// it with ErrOverloaded when the in-flight limit is reached.
func (s *Scheduler) admit() (func(), error) {
	for {
		in := s.inflight.Load()
		if lim := s.limit.Load(); lim > 0 && in >= lim {
			s.shed.Add(1)
			return nil, ErrOverloaded
		}
		if s.inflight.CompareAndSwap(in, in+1) {
			in++
			s.admitted.Add(1)
			for {
				p := s.peak.Load()
				if in <= p || s.peak.CompareAndSwap(p, in) {
					break
				}
			}
			return func() {
				s.inflight.Add(-1)
				s.done.Add(1)
			}, nil
		}
	}
}

// MapOn runs fn(sc, i) for every i in [0, n) on the scheduler's pool and
// returns the results in index order: the call publishes one job whose n
// tasks the pool's workers claim one at a time, interleaved with the
// tasks of every other execution currently admitted.
// Every pool worker that runs a task of this call builds its scratch with
// newScratch at most once and passes it to each of the call's tasks it
// runs, so buffers allocated there are reused without synchronisation —
// the pooling behind the allocation-free fragment hot loops of the query
// engines. fn must be safe for concurrent invocation with distinct
// scratch values.
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
	return mapOnOrdered(ctx, s, n, nil, newScratch, fn)
}

// MapShardedOn is MapOn with placement-aware claim order: tasks are
// claimed round-robin across their shards (typically the disk holding
// each task's fragment, clamped into [0, shards)), so the first tasks an
// execution gets running are spread over distinct disks instead of
// convoying on one queue. With at most one shard it is MapOn. The gather
// order is unchanged, so results are identical to MapOn, and so is the
// error: of several failing tasks the lowest index is reported.
func MapShardedOn[S, T any](ctx context.Context, s *Scheduler, n int, shardOf func(i int) int, shards int, newScratch func() S, fn func(sc S, i int) (T, error)) ([]T, error) {
	if shards <= 1 || n <= 1 {
		return mapOnOrdered(ctx, s, n, nil, newScratch, fn)
	}
	queues := make([][]int32, shards)
	for i := 0; i < n; i++ {
		k := shardOf(i)
		if k < 0 || k >= shards {
			k = ((k % shards) + shards) % shards
		}
		queues[k] = append(queues[k], int32(i))
	}
	order := make([]int32, 0, n)
	for len(order) < n {
		for k := 0; k < shards; k++ {
			if len(queues[k]) > 0 {
				order = append(order, queues[k][0])
				queues[k] = queues[k][1:]
			}
		}
	}
	return mapOnOrdered(ctx, s, n, order, newScratch, fn)
}

// mapOnOrdered publishes one job whose position k is task order[k]
// (identity when nil) and gathers results by task index.
func mapOnOrdered[S, T any](ctx context.Context, s *Scheduler, n int, order []int32, newScratch func() S, fn func(sc S, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	release, err := s.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	var (
		results = make([]T, n)
		errs    = make([]error, n)
		// scratches[w] belongs to pool worker w: only that worker's
		// goroutine touches it, and tasks of one call on one worker run
		// sequentially, so no synchronisation is needed.
		scratches = make([]S, s.workers)
		made      = make([]bool, s.workers)
		// cutoff is the lowest task index known to have failed: n while
		// none has, -1 once ctx is cancelled. A claimed task runs only
		// when its index is not above the cutoff — so under any claim
		// order every task below the lowest failure runs, and that
		// failure, not whichever was noticed first, is the one reported.
		cutoff atomic.Int64
		j      = &job{n: int64(n), fin: make(chan struct{})}
	)
	cutoff.Store(int64(n))
	j.run = func(w, k int) {
		i := k
		if order != nil {
			i = int(order[k])
		}
		if int64(i) > cutoff.Load() {
			return
		}
		// A panicking task must poison only its own execution, never
		// the shared pool: recover it into this task's error slot.
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("exec: task %d panicked: %v", i, r)
				lowerTo(&cutoff, int64(i))
			}
		}()
		if !made[w] {
			scratches[w] = newScratch()
			made[w] = true
		}
		r, err := fn(scratches[w], i)
		if err != nil {
			errs[i] = err
			lowerTo(&cutoff, int64(i))
			return
		}
		results[i] = r
	}
	if err := s.publish(j); err != nil {
		return nil, err
	}
	select {
	case <-j.fin:
	case <-ctx.Done():
		cutoff.Store(-1)
		<-j.fin
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// lowerTo lowers *c to v unless it is already at or below it.
func lowerTo(c *atomic.Int64, v int64) {
	for {
		cur := c.Load()
		if cur <= v || c.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ReduceShardedOn is MapShardedOn (MapOn with one shard) followed by a
// deterministic gather: the per-task partials are folded into a single
// accumulator strictly in task order, so non-commutative merges still
// give identical results at any pool size, shard layout or admission
// mix. This is also what makes grouped roll-ups deterministic: the query
// drivers' merge funcs (internal/kernel) fold per-fragment group maps
// through this task-ordered gather, so the accumulated group content —
// and, after the kernel's sorted row flattening, the output bytes — are
// identical however the tasks were scheduled.
func ReduceShardedOn[S, T, A any](ctx context.Context, s *Scheduler, n int, shardOf func(i int) int, shards int, newScratch func() S, fn func(sc S, i int) (T, error), merge func(acc *A, part T)) (A, error) {
	parts, err := MapShardedOn(ctx, s, n, shardOf, shards, newScratch, fn)
	return fold(parts, err, merge)
}
