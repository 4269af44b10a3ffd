package exec

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// entry is one way into the package's single task loop, reduced to int
// tasks with an *int scratch so the semantics tests below can run every
// guarantee against every entry point.
type entry struct {
	name string
	// run passes newScratch on where the entry point takes one; Map does
	// not, so its tasks get a fresh scratch each.
	run func(ctx context.Context, n int, newScratch func() *int, fn func(sc *int, i int) (int, error)) ([]int, error)
}

// shardedMap gathers fn's results by index through ReduceShardedOn:
// the sharded claim order and the worker-side fold, whose "sum" here is
// storing result i in slot i of one slice all workers share.
func shardedMap(ctx context.Context, s *Scheduler, n int, shardOf func(i int) int, shards int, newScratch func() *int, fn func(sc *int, i int) (int, error)) ([]int, error) {
	results := make([]int, max(n, 0))
	_, err := ReduceShardedOn(ctx, s, n, shardOf, shards, NewScratch(newScratch),
		func(sc *int, _ *struct{}, i int) (err error) {
			results[i], err = fn(sc, i)
			return err
		}, func(_, _ *struct{}) {})
	if err != nil || n <= 0 {
		return nil, err
	}
	return results, nil
}

// entries returns Map (a scheduler owned by each call) plus MapOn and
// ReduceShardedOn on one shared scheduler of the given size. The third
// keeps the name of the sharded map it replaced; its shard keys run out
// of range on both sides, so every test also covers the clamp into
// [0, shards).
func entries(t *testing.T, workers int) []entry {
	s := NewScheduler(workers)
	t.Cleanup(s.Close)
	return []entry{
		{
			name: "Map",
			run: func(ctx context.Context, n int, newScratch func() *int, fn func(*int, int) (int, error)) ([]int, error) {
				return Map(ctx, workers, n, func(i int) (int, error) { return fn(newScratch(), i) })
			},
		},
		{
			name: "MapOn",
			run: func(ctx context.Context, n int, newScratch func() *int, fn func(*int, int) (int, error)) ([]int, error) {
				return MapOn(ctx, s, n, newScratch, fn)
			},
		},
		{
			name: "MapShardedOn",
			run: func(ctx context.Context, n int, newScratch func() *int, fn func(*int, int) (int, error)) ([]int, error) {
				return shardedMap(ctx, s, n, func(i int) int { return i*13 - 7 }, 5, newScratch, fn)
			},
		},
	}
}

// forEachEntry runs body once per entry point and pool size.
func forEachEntry(t *testing.T, sizes []int, body func(t *testing.T, e entry, workers int)) {
	for _, workers := range sizes {
		for _, e := range entries(t, workers) {
			t.Run(fmt.Sprintf("%s/workers=%d", e.name, workers), func(t *testing.T) { body(t, e, workers) })
		}
	}
}

func newInt() *int { return new(int) }

func TestGatherPreservesIndexOrder(t *testing.T) {
	forEachEntry(t, []int{1, 2, 3, 8, 100}, func(t *testing.T, e entry, _ int) {
		got, err := e.run(context.Background(), 50, newInt, func(_ *int, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 50 {
			t.Fatalf("%d results", len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
			}
		}
	})
}

func TestZeroTasks(t *testing.T) {
	forEachEntry(t, []int{2}, func(t *testing.T, e entry, _ int) {
		fn := func(*int, int) (int, error) {
			t.Error("fn called for n=0")
			return 0, nil
		}
		if got, err := e.run(context.Background(), 0, newInt, fn); err != nil || got != nil {
			t.Fatalf("got %v, %v; want nil, nil", got, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.run(ctx, 0, newInt, fn); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled n=0: err = %v, want context.Canceled", err)
		}
	})
}

// TestErrorIsLowestIndex: several tasks fail; the reported error must
// deterministically be the lowest failing index, whatever order workers
// hit them in, and the partial results are withheld.
func TestErrorIsLowestIndex(t *testing.T) {
	forEachEntry(t, []int{4, 8}, func(t *testing.T, e entry, _ int) {
		for trial := 0; trial < 200; trial++ {
			got, err := e.run(context.Background(), 40, newInt, func(_ *int, i int) (int, error) {
				if i%7 == 3 { // fails at 3, 10, 17, ...
					return 0, fmt.Errorf("task %d failed", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "task 3 failed" {
				t.Fatalf("trial %d: err = %v, want task 3's", trial, err)
			}
			if got != nil {
				t.Fatalf("trial %d: partial results returned with the error", trial)
			}
		}
	})
}

// TestShardedErrorIsLowestIndex: two failing tasks on different shards,
// the higher index first in claim order (32 is position 0, 5 is position
// 11). Every task below the lowest failing index runs under any order,
// so the lower index's error is the one reported, every time.
func TestShardedErrorIsLowestIndex(t *testing.T) {
	s := NewScheduler(4)
	defer s.Close()
	for trial := 0; trial < 200; trial++ {
		_, err := shardedMap(context.Background(), s, 64,
			func(i int) int {
				if i >= 32 {
					return 0
				}
				return 1
			}, 2, newInt,
			func(_ *int, i int) (int, error) {
				if i == 32 || i == 5 {
					return 0, fmt.Errorf("task %d failed", i)
				}
				return i, nil
			})
		if err == nil || err.Error() != "task 5 failed" {
			t.Fatalf("trial %d: err = %v, want task 5's", trial, err)
		}
	}
}

// TestErrorStopsDispatch: on a pool of one nothing is started after the
// failing task — in task order that is exactly the tasks up to it; the
// sharded entry submits in shard order, so there it is only "not all".
func TestErrorStopsDispatch(t *testing.T) {
	for _, e := range entries(t, 1) {
		var calls atomic.Int64
		_, err := e.run(context.Background(), 1000, newInt, func(_ *int, i int) (int, error) {
			calls.Add(1)
			if i == 4 {
				return 0, errors.New("boom")
			}
			return 0, nil
		})
		if err == nil {
			t.Fatalf("%s: no error", e.name)
		}
		got := calls.Load()
		if e.name == "MapShardedOn" {
			if got >= 1000 {
				t.Fatalf("%s: failure did not stop dispatch", e.name)
			}
		} else if got != 5 {
			t.Fatalf("%s: one worker ran %d tasks, failing at the 5th", e.name, got)
		}
	}
}

// TestCancellationMidSubmit cancels from inside the first task that
// runs: the call must report the cancellation and stop submitting.
func TestCancellationMidSubmit(t *testing.T) {
	forEachEntry(t, []int{2}, func(t *testing.T, e entry, _ int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var calls atomic.Int64
		var once sync.Once
		_, err := e.run(ctx, 10_000, newInt, func(_ *int, i int) (int, error) {
			calls.Add(1)
			once.Do(cancel)
			time.Sleep(100 * time.Microsecond)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if calls.Load() >= 10_000 {
			t.Fatal("cancellation did not stop dispatch")
		}
	})
}

// TestPanicPoisonsOnlyItsCall: a panicking task fails its own call with
// a panic-derived error; the pool it ran on keeps serving.
func TestPanicPoisonsOnlyItsCall(t *testing.T) {
	forEachEntry(t, []int{2}, func(t *testing.T, e entry, _ int) {
		_, err := e.run(context.Background(), 6, newInt, func(_ *int, i int) (int, error) {
			if i == 4 {
				panic("poisoned task")
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("panicking task returned %v, want panic-derived error", err)
		}
		res, err := e.run(context.Background(), 3, newInt, func(_ *int, i int) (int, error) { return i * i, nil })
		if err != nil || len(res) != 3 || res[2] != 4 {
			t.Fatalf("pool dead after panic: res=%v err=%v", res, err)
		}
	})
}

// TestScratchBuiltAtMostOncePerWorker: the scratch outlives the call.
// Over 1,000 sequential calls on one list every pool worker builds at
// most one scratch and threads it through each task it runs; a scratch
// in two tasks at once would race on the buffer (-race).
func TestScratchBuiltAtMostOncePerWorker(t *testing.T) {
	type scratch struct{ buf []int }
	for _, workers := range []int{1, 2, 4} {
		s := NewScheduler(workers)
		var created atomic.Int64
		pool := NewScratch(func() *scratch {
			created.Add(1)
			return &scratch{buf: make([]int, 0, 8)}
		})
		fn := func(sc *scratch, acc *int, i int) error {
			sc.buf = append(sc.buf[:0], i, i, i)
			*acc += sc.buf[0] + sc.buf[1] + sc.buf[2]
			return nil
		}
		for call := 0; call < 1000; call++ {
			shards := 1 + 7*(call%2)
			got, err := ReduceShardedOn(context.Background(), s, 64, func(i int) int { return i % 8 }, shards, pool, fn, addInts)
			if err != nil || got != 3*64*63/2 {
				t.Fatalf("workers=%d call %d: %d, %v", workers, call, got, err)
			}
		}
		if n := created.Load(); n < 1 || n > int64(workers) || int64(held(pool, s)) != n {
			t.Fatalf("workers=%d: %d scratches built over 1,000 calls, %d held by slots", workers, n, held(pool, s))
		}
		s.Close()
	}
}

func addInts(acc, part *int) { *acc += *part }

// held counts the slots of scheduler s in the list that hold a scratch.
func held[S any](pool *Scratch[S], s *Scheduler) int {
	n := 0
	for _, sl := range pool.slots[s].slots {
		if sl.ok {
			n++
		}
	}
	return n
}

// TestScratchBuiltOncePerWorkerUnderOverlap: eight callers at once on
// four workers never build more scratches than the pool has workers —
// a task uses its worker's, whichever call it belongs to.
func TestScratchBuiltOncePerWorkerUnderOverlap(t *testing.T) {
	const workers, callers, calls = 4, 8, 200
	s := NewScheduler(workers)
	defer s.Close()
	var created atomic.Int64
	pool := NewScratch(func() *int {
		created.Add(1)
		return new(int)
	})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for call := 0; call < calls; call++ {
				got, err := ReduceShardedOn(context.Background(), s, 16, nil, 1, pool,
					func(sc *int, acc *int, i int) error {
						*sc = i // a scratch in two tasks at once races here (-race)
						runtime.Gosched()
						*acc += *sc
						return nil
					}, addInts)
				if err != nil || got != 16*15/2 {
					t.Errorf("%d, %v", got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := created.Load(); n < 1 || n > workers || int64(held(pool, s)) != n {
		t.Fatalf("%d scratches built by %d overlapping callers on %d workers, %d held by slots", n, callers, workers, held(pool, s))
	}
}

// TestScratchGivenBackOnEveryPath: a call that failed, was cancelled
// mid-flight or had a task panic returns no partial, and every worker
// keeps its scratch — except the one whose task panicked: its scratch,
// in a state nobody knows, is dropped, and that worker alone builds a
// new one on its next task, exactly once. Every call's four tasks wait
// for each other, so each of the four workers runs one of them; the
// first call builds the four scratches.
func TestScratchGivenBackOnEveryPath(t *testing.T) {
	type scratch struct{ panicked bool }
	const workers = 4
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		fn   func(cancel func(), sc *scratch, i int) error
		ok   func(error) bool
		lost int
	}{
		{"success", func(func(), *scratch, int) error { return nil }, func(err error) bool { return err == nil }, 0},
		{"task error", func(_ func(), _ *scratch, i int) error {
			if i == 2 {
				return boom
			}
			return nil
		}, func(err error) bool { return err == boom }, 0},
		{"cancelled", func(cancel func(), _ *scratch, i int) error {
			if i == 2 {
				cancel()
			}
			return nil
		}, func(err error) bool { return errors.Is(err, context.Canceled) }, 0},
		{"panic", func(_ func(), sc *scratch, i int) error {
			if i == 2 {
				sc.panicked = true
				panic("poisoned task")
			}
			return nil
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "task 2 panicked") }, 1},
	} {
		s := NewScheduler(workers)
		var built atomic.Int64
		pool := NewScratch(func() *scratch {
			built.Add(1)
			return &scratch{}
		})
		call := func(fn func(cancel func(), sc *scratch, i int) error) (int, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var met sync.WaitGroup
			met.Add(workers)
			return ReduceShardedOn(ctx, s, workers, nil, 1, pool, func(sc *scratch, acc *int, i int) error {
				met.Done()
				met.Wait()
				*acc++
				return fn(cancel, sc, i)
			}, addInts)
		}
		noop := func(func(), *scratch, int) error { return nil }
		if got, err := call(noop); err != nil || got != workers {
			t.Fatalf("%s, first call: %d, %v", tc.name, got, err)
		}
		if got, err := call(tc.fn); !tc.ok(err) || (err != nil && got != 0) || (err == nil && got != workers) {
			t.Fatalf("%s: %d, %v", tc.name, got, err)
		}
		if lost := workers - held(pool, s); built.Load() != workers || lost != tc.lost {
			t.Fatalf("%s: %d built, %d dropped; want %d and %d", tc.name, built.Load(), lost, workers, tc.lost)
		}
		kept := map[*scratch]bool{}
		for _, sl := range pool.slots[s].slots {
			if sl.ok {
				kept[sl.sc] = true
			}
		}
		if got, err := call(noop); err != nil || got != workers {
			t.Fatalf("%s, next call: %d, %v", tc.name, got, err)
		}
		if held(pool, s) != workers || built.Load() != int64(workers+tc.lost) {
			t.Fatalf("%s, next call: %d held, %d built; want %d and %d", tc.name, held(pool, s), built.Load(), workers, workers+tc.lost)
		}
		for _, sl := range pool.slots[s].slots[:workers] {
			if sl.sc.panicked {
				t.Fatalf("%s: the scratch a task panicked on is in use again", tc.name)
			}
			delete(kept, sl.sc)
		}
		if len(kept) != 0 {
			t.Fatalf("%s: %d kept scratches were replaced", tc.name, len(kept))
		}
		s.Close()
	}
}

// TestScratchSharedBySchedulers: one list serving a 2-worker and a
// 4-worker scheduler at once, call after call, never has one scratch in
// two tasks — a task finding its scratch in use counts a clash, and the
// unsynchronised write races (-race) — and builds at most one per worker
// of each. A scheduler closed since is dropped at the next one's first
// call.
func TestScratchSharedBySchedulers(t *testing.T) {
	type scratch struct {
		inUse atomic.Bool
		last  int
	}
	var built, clashes atomic.Int64
	pool := NewScratch(func() *scratch {
		built.Add(1)
		return &scratch{}
	})
	fn := func(sc *scratch, acc *int, i int) error {
		if !sc.inUse.CompareAndSwap(false, true) {
			clashes.Add(1)
		}
		sc.last = i
		runtime.Gosched()
		*acc += sc.last
		sc.inUse.Store(false)
		return nil
	}
	scheds := []*Scheduler{NewScheduler(2), NewScheduler(4)}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(s *Scheduler) {
			defer wg.Done()
			for call := 0; call < 100; call++ {
				if got, err := ReduceShardedOn(context.Background(), s, 32, nil, 1, pool, fn, addInts); err != nil || got != 32*31/2 {
					t.Errorf("%d, %v", got, err)
					return
				}
			}
		}(scheds[c%2])
	}
	wg.Wait()
	if n := clashes.Load(); n != 0 || built.Load() > 6 {
		t.Fatalf("%d tasks found their scratch in another's hands; %d built for 6 workers", n, built.Load())
	}
	scheds[0].Close()
	s := NewScheduler(1)
	defer s.Close()
	defer scheds[1].Close()
	if _, err := ReduceShardedOn(context.Background(), s, 1, nil, 1, pool, fn, addInts); err != nil {
		t.Fatal(err)
	}
	if _, ok := pool.slots[scheds[0]]; ok || len(pool.slots) != 2 {
		t.Fatalf("slots of %d schedulers kept, the closed one's among them: %v", len(pool.slots), ok)
	}
}

// BenchmarkScratchBorrow: the per-task cost of a call's dispatch and
// scratch use, on empty tasks.
func BenchmarkScratchBorrow(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			const tasks = 192
			s := NewScheduler(workers)
			defer s.Close()
			pool := NewScratch(newInt)
			fn := func(sc *int, acc *int, i int) error { return nil }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReduceShardedOn(context.Background(), s, tasks, nil, 1, pool, fn, addInts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
		})
	}
}

// TestShardedRunsEveryTaskOnce: extreme skew — every task in one shard —
// must still run each task exactly once.
func TestShardedRunsEveryTaskOnce(t *testing.T) {
	s := NewScheduler(8)
	defer s.Close()
	counts := make([]atomic.Int64, 200)
	ran, err := ReduceShardedOn(context.Background(), s, 200,
		func(i int) int { return 3 }, 7, NewScratch(newInt),
		func(_ *int, acc *int, i int) error {
			counts[i].Add(1)
			*acc++
			return nil
		}, addInts)
	if err != nil || ran != 200 {
		t.Fatalf("%d tasks folded, %v", ran, err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

// TestReduceGroupedMapDeterministic: for a commutative merge — per-key
// sums into a map, the shape the query drivers' grouped roll-ups reduce —
// the partials the workers fold and the caller merges equal the serial
// fold in task order, at every pool size, task count and shard layout
// (shard keys out of range on both sides), 20 times each.
func TestReduceGroupedMapDeterministic(t *testing.T) {
	type sums map[int]int64
	fn := func(_ *int, acc *sums, i int) error {
		if *acc == nil {
			*acc = sums{}
		}
		(*acc)[i%7] += int64(i)
		(*acc)[(i*13)%5] += int64(i) * int64(i)
		return nil
	}
	merge := func(acc, part *sums) {
		for k, v := range *part {
			(*acc)[k] += v
		}
	}
	for _, workers := range []int{1, 2, 4, 7} {
		s := NewScheduler(workers)
		pool := NewScratch(newInt)
		for _, n := range []int{0, 1, 3, 192} {
			var want sums
			for i := 0; i < n; i++ {
				fn(nil, &want, i)
			}
			for _, shards := range []int{1, 2, 5, 64} {
				for rep := 0; rep < 20; rep++ {
					got, err := ReduceShardedOn(context.Background(), s, n, func(i int) int { return i*13 - 7 }, shards, pool, fn, merge)
					if err != nil || !maps.Equal(got, want) {
						t.Fatalf("workers=%d n=%d shards=%d: %v, %v; serial fold %v", workers, n, shards, got, err, want)
					}
				}
			}
		}
		s.Close()
	}
}

// TestReduceMergesInTaskOrder: a non-commutative merge (string
// concatenation) must come out in task order at every pool size — on
// Reduce, and on the index-ordered gather of every other entry — and a
// failed run folds nothing.
func TestReduceMergesInTaskOrder(t *testing.T) {
	want := ""
	for i := 0; i < 30; i++ {
		want += fmt.Sprintf("[%d]", i)
	}
	concat := func(acc *string, part int) { *acc += fmt.Sprintf("[%d]", part) }
	forEachEntry(t, []int{1, 4, 16}, func(t *testing.T, e entry, workers int) {
		reduce := func(n int, fn func(i int) (int, error)) (string, error) {
			if e.name == "Map" {
				return Reduce(context.Background(), workers, n, fn, concat)
			}
			var acc string
			parts, err := e.run(context.Background(), n, newInt, func(_ *int, i int) (int, error) { return fn(i) })
			for _, p := range parts {
				concat(&acc, p)
			}
			return acc, err
		}
		got, err := reduce(30, func(i int) (int, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("merge order broken: %q", got)
		}
		got, err = reduce(10, func(i int) (int, error) {
			if i == 0 {
				return 0, errors.New("first fails")
			}
			return i, nil
		})
		if err == nil || got != "" {
			t.Fatalf("failed run: acc=%q err=%v, want empty and an error", got, err)
		}
	})
}

// TestConcurrentExecutionsMatchSerial runs many concurrent executions of
// mixed sizes on one shared scheduler, one of them cancelled mid-flight,
// and checks every healthy result is identical to the same tasks on a
// pool of one, the cancelled call reports its context's error with no
// results, and the admission accounting adds up.
func TestConcurrentExecutionsMatchSerial(t *testing.T) {
	s := NewScheduler(4)
	defer s.Close()
	ctx := context.Background()

	fn := func(q int) func(sc *int, i int) (int, error) {
		return func(sc *int, i int) (int, error) {
			*sc++ // exercise scratch reuse
			return q*1000 + i*i, nil
		}
	}

	const queries = 16
	sizes := []int{1, 3, 32, 192}
	var wg sync.WaitGroup
	errsCh := make(chan error, queries+1)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			n := sizes[q%len(sizes)]
			want, err := Map(ctx, 1, n, func(i int) (int, error) { return fn(q)(newInt(), i) })
			if err != nil {
				errsCh <- err
				return
			}
			got, err := MapOn(ctx, s, n, newInt, fn(q))
			if err != nil {
				errsCh <- err
				return
			}
			for i := range want {
				if got[i] != want[i] {
					errsCh <- fmt.Errorf("query %d task %d: got %d want %d", q, i, got[i], want[i])
					return
				}
			}
		}(q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		got, err := MapOn(cctx, s, 192, newInt, func(_ *int, i int) (int, error) {
			if i == 5 {
				cancel()
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) || got != nil {
			errsCh <- fmt.Errorf("cancelled call: got %v, %v; want nil, context.Canceled", got, err)
		}
	}()
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		t.Error(err)
	}

	st := s.Stats()
	if st.QueriesAdmitted != queries+1 || st.QueriesDone != st.QueriesAdmitted {
		t.Fatalf("accounting: admitted %d done %d, want %d", st.QueriesAdmitted, st.QueriesDone, queries+1)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight %d after drain", st.InFlight)
	}
	if st.PeakInFlight < 1 || st.PeakInFlight > queries+1 {
		t.Fatalf("peak in-flight %d out of range", st.PeakInFlight)
	}
	if st.Workers != 4 {
		t.Fatalf("workers %d, want 4", st.Workers)
	}
}

// smallBesideBig runs a 1,000-task call on a pool of one whose tasks bump
// a counter, and from inside its 10th task starts a 1-task call on the
// same pool, holding the 10th task until that call is published. Every
// caller slot is held throughout, so the small call goes to the pool
// instead of running on its caller. It returns the counter as the small
// call's task saw it and as its caller read it on return.
func smallBesideBig(t *testing.T) (seen, returned int64) {
	s := NewScheduler(1)
	defer s.Close()
	s.callers.Store(1<<callerSlots - 1)
	ctx := context.Background()
	var counter atomic.Int64
	small := make(chan error, 1)
	_, err := MapOn(ctx, s, 1000, newInt, func(_ *int, i int) (int, error) {
		counter.Add(1)
		if i == 9 {
			go func() {
				_, err := MapOn(ctx, s, 1, newInt, func(*int, int) (int, error) {
					seen = counter.Load()
					return 0, nil
				})
				returned = counter.Load()
				small <- err
			}()
			for deadline := time.Now().Add(10 * time.Second); len(*s.jobs.Load()) < 2; runtime.Gosched() {
				if time.Now().After(deadline) {
					return 0, errors.New("the small call was never published")
				}
			}
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-small; err != nil {
		t.Fatal(err)
	}
	return seen, returned
}

// TestInterleavesAtFragmentGranularity: a small call published while a
// big one is running gets the worker's next claim but one, not the turn
// after the big call has drained (which would read about 1,000).
func TestInterleavesAtFragmentGranularity(t *testing.T) {
	if seen, _ := smallBesideBig(t); seen > 10+2 {
		t.Fatalf("small call's task ran after %d of the big call's tasks, want about 10", seen)
	}
}

// TestFinishedCallerIsNotStarved: on one processor a pull worker never
// blocks while the big call has work, so the small call's caller gets to
// run only because the worker yields after finishing it — without that
// it returns once sysmon preempts the worker, hundreds of tasks later.
// (One yield in 61 hands the processor back to the worker first — the
// runtime's global-queue fairness tick — hence best of several.)
func TestFinishedCallerIsNotStarved(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	const trials = 20
	prompt := 0
	for trial := 0; trial < trials; trial++ {
		if seen, returned := smallBesideBig(t); returned-seen <= 2 {
			prompt++
		}
	}
	if prompt < trials*3/4 {
		t.Fatalf("caller resumed promptly in %d of %d trials", prompt, trials)
	}
}

// TestClose: Close on an idle pool and after concurrent calls returns
// with no worker left, and a call after Close is refused with ErrClosed.
func TestClose(t *testing.T) {
	before := runtime.NumGoroutine()
	NewScheduler(4).Close()
	s := NewScheduler(4)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := MapOn(context.Background(), s, 50, newInt, func(_ *int, i int) (int, error) { return i, nil }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after Close", before, n)
	}
	got, err := MapOn(context.Background(), s, 3, newInt, func(_ *int, i int) (int, error) {
		t.Error("task ran on a closed scheduler")
		return i, nil
	})
	if !errors.Is(err, ErrClosed) || got != nil {
		t.Fatalf("call after Close: got %v, %v; want nil, ErrClosed", got, err)
	}
	if st := s.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight %d after a refused call", st.InFlight)
	}
}
