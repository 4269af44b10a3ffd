package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// heldBy counts the slots of scheduler s in the list that hold a scratch:
// the pool workers' and the caller slots'.
func heldBy[S any](pool *Scratch[S], s *Scheduler) (workers, callers int) {
	for i, sl := range pool.slots[s].slots {
		switch {
		case !sl.ok:
		case i < s.workers:
			workers++
		default:
			callers++
		}
	}
	return workers, callers
}

// oneTask is a call of one task through ReduceShardedOn running body on
// its scratch. onCaller reports that no job was published while the task
// ran, as when it runs on its caller.
func oneTask(ctx context.Context, s *Scheduler, pool *Scratch[*int], body func(sc *int) error) (onCaller bool, err error) {
	_, err = reduceShardedOn(ctx, s, 1, nil, 1, pool, func(sc *int, acc *int, i int) error {
		onCaller = len(*s.jobs.Load()) == 0
		*acc = 1
		return body(sc)
	}, addInts)
	return onCaller, err
}

// TestOneTaskCallRunsOnCaller: serial one-task calls publish no job and
// use one caller slot's scratch, built once.
func TestOneTaskCallRunsOnCaller(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	var built atomic.Int64
	pool := NewScratch(func() *int { built.Add(1); return new(int) })
	for call := 0; call < 100; call++ {
		onCaller, err := oneTask(context.Background(), s, pool, func(*int) error { return nil })
		if err != nil || !onCaller {
			t.Fatalf("call %d: on caller %v, %v", call, onCaller, err)
		}
	}
	got, err := MapOn(context.Background(), s, 1, newInt, func(_ *int, i int) (int, error) {
		if len(*s.jobs.Load()) != 0 {
			t.Error("MapOn published a one-task call")
		}
		return 7, nil
	})
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("MapOn: %v, %v", got, err)
	}
	w, c := heldBy(pool, s)
	if built.Load() != 1 || w != 0 || c != 1 {
		t.Fatalf("%d scratches built, %d held by workers and %d by caller slots; want 1, 0 and 1", built.Load(), w, c)
	}
	if st := s.Stats(); st.QueriesAdmitted != 101 || st.QueriesDone != 101 || st.InFlight != 0 {
		t.Fatalf("accounting: %+v", st)
	}
}

// TestOneTaskCallShedAtLimit: a one-task call on its caller counts
// against the admission limit, and one beyond it is shed without running.
func TestOneTaskCallShedAtLimit(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	s.SetLimit(1)
	pool := NewScratch(newInt)
	var innerRan bool
	onCaller, err := oneTask(context.Background(), s, pool, func(*int) error {
		_, err := oneTask(context.Background(), s, pool, func(*int) error {
			innerRan = true
			return nil
		})
		return err
	})
	if !onCaller || !errors.Is(err, ErrOverloaded) || innerRan {
		t.Fatalf("on caller %v, inner ran %v, err %v; want the inner call shed", onCaller, innerRan, err)
	}
	if st := s.Stats(); st.Shed != 1 || st.InFlight != 0 || st.QueriesAdmitted != 1 {
		t.Fatalf("accounting: %+v", st)
	}
}

// TestOneTaskCallAfterClose: after Close a one-task call fails with
// ErrClosed, runs nothing and holds no caller slot.
func TestOneTaskCallAfterClose(t *testing.T) {
	s := NewScheduler(2)
	s.Close()
	ran := false
	_, err := oneTask(context.Background(), s, NewScratch(newInt), func(*int) error { ran = true; return nil })
	if !errors.Is(err, ErrClosed) || ran {
		t.Fatalf("ran %v, %v; want ErrClosed and no task", ran, err)
	}
	got, err := MapOn(context.Background(), s, 1, newInt, func(*int, int) (int, error) { ran = true; return 0, nil })
	if !errors.Is(err, ErrClosed) || got != nil || ran {
		t.Fatalf("MapOn: ran %v, %v, %v; want ErrClosed and no task", ran, got, err)
	}
	if st := s.Stats(); st.InFlight != 0 || s.callers.Load() != 0 {
		t.Fatalf("in flight %d, caller slots %b after refused calls", st.InFlight, s.callers.Load())
	}
}

// TestOneTaskCallCancelled: on a cancelled context the task never
// starts.
func TestOneTaskCallCancelled(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := oneTask(ctx, s, NewScratch(newInt), func(*int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("ran %v, %v; want context.Canceled and no task", ran, err)
	}
	// Cancelled while it runs: the task completes, the call reports the
	// cancellation and withholds the partial.
	ctx, cancel = context.WithCancel(context.Background())
	got, err := reduceShardedOn(ctx, s, 1, nil, 1, NewScratch(newInt), func(_ *int, acc *int, _ int) error {
		*acc = 5
		cancel()
		return nil
	}, addInts)
	if !errors.Is(err, context.Canceled) || got != 0 {
		t.Fatalf("cancelled mid-task: %d, %v; want 0, context.Canceled", got, err)
	}
	if st := s.Stats(); st.TasksRun != 1 || st.InFlight != 0 {
		t.Fatalf("accounting: %+v", st)
	}
}

// TestOneTaskCallPanic: the panic fails the call with an error naming
// task 0, drops the caller slot's scratch, and the next call rebuilds it
// exactly once; no worker builds one.
func TestOneTaskCallPanic(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	var built atomic.Int64
	pool := NewScratch(func() *int { built.Add(1); return new(int) })
	ok := func(*int) error { return nil }
	if _, err := oneTask(context.Background(), s, pool, ok); err != nil {
		t.Fatal(err)
	}
	var poisoned *int
	_, err := oneTask(context.Background(), s, pool, func(sc *int) error {
		poisoned = sc
		panic("boom")
	})
	if err == nil || err.Error() != "exec: task 0 panicked: boom" {
		t.Fatalf("err = %v, want task 0's panic", err)
	}
	if w, c := heldBy(pool, s); w != 0 || c != 0 {
		t.Fatalf("%d worker and %d caller slots hold a scratch after the panic, want none", w, c)
	}
	for call := 0; call < 3; call++ {
		if _, err := oneTask(context.Background(), s, pool, func(sc *int) error {
			if sc == poisoned {
				t.Error("the scratch a task panicked on is in use again")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if w, c := heldBy(pool, s); built.Load() != 2 || w != 0 || c != 1 {
		t.Fatalf("%d built, %d held by workers, %d by caller slots; want 2, 0 and 1", built.Load(), w, c)
	}
	if s.callers.Load() != 0 {
		t.Fatalf("caller slots %b still taken", s.callers.Load())
	}
}

// TestOneTaskCallTasksRun: TasksRun counts a task run on its caller as
// one the pool ran.
func TestOneTaskCallTasksRun(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	pool := NewScratch(newInt)
	for call := 0; call < 10; call++ {
		if _, err := oneTask(context.Background(), s, pool, func(*int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MapOn(context.Background(), s, 1, newInt, func(*int, int) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().TasksRun; got != 11 {
		t.Fatalf("TasksRun = %d after 11 one-task calls", got)
	}
	if _, err := MapOn(context.Background(), s, 5, newInt, func(*int, int) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().TasksRun; got != 16 {
		t.Fatalf("TasksRun = %d after 11 one-task calls and one of 5 tasks", got)
	}
}

// TestOneTaskCallsOverflowToPool: with every caller slot taken, the next
// one-task call goes to the pool. callerSlots+1 calls whose tasks wait
// for each other must all run at once: the caller slots take callerSlots
// of them and a worker the last.
func TestOneTaskCallsOverflowToPool(t *testing.T) {
	const calls = callerSlots + 1
	s := NewScheduler(2)
	defer s.Close()
	var built atomic.Int64
	pool := NewScratch(func() *int { built.Add(1); return new(int) })
	var met sync.WaitGroup
	met.Add(calls)
	var wg sync.WaitGroup
	for c := 0; c < calls; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := oneTask(context.Background(), s, pool, func(*int) error {
				met.Done()
				met.Wait()
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	w, c := heldBy(pool, s)
	if w != 1 || c != callerSlots || built.Load() != calls {
		t.Fatalf("%d worker and %d caller slots hold a scratch, %d built; want 1, %d and %d", w, c, built.Load(), callerSlots, calls)
	}
}

// TestOneTaskCallersBeyondSlots: four times as many concurrent one-task
// callers as caller slots, call after call, never have one scratch in two
// tasks — a task finding its scratch in use counts a clash, and the
// unsynchronised write races (-race) — and build at most one per worker
// and per caller slot.
func TestOneTaskCallersBeyondSlots(t *testing.T) {
	type scratch struct {
		inUse atomic.Bool
		last  int
	}
	const workers = 2
	s := NewScheduler(workers)
	defer s.Close()
	var built, clashes atomic.Int64
	pool := NewScratch(func() *scratch { built.Add(1); return &scratch{} })
	var wg sync.WaitGroup
	for g := 0; g < 4*callerSlots; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for call := 0; call < 100; call++ {
				got, err := reduceShardedOn(context.Background(), s, 1, nil, 1, pool, func(sc *scratch, acc *int, _ int) error {
					if !sc.inUse.CompareAndSwap(false, true) {
						clashes.Add(1)
					}
					sc.last = g
					runtime.Gosched()
					*acc = sc.last
					sc.inUse.Store(false)
					return nil
				}, addInts)
				if err != nil || got != g {
					t.Errorf("caller %d: %d, %v", g, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := clashes.Load(); n != 0 || built.Load() > workers+callerSlots {
		t.Fatalf("%d tasks found their scratch in another's hands; %d built for %d workers and %d caller slots", n, built.Load(), workers, callerSlots)
	}
	if st := s.Stats(); st.TasksRun != 4*callerSlots*100 || st.InFlight != 0 || s.callers.Load() != 0 {
		t.Fatalf("accounting: %+v, caller slots %b", st, s.callers.Load())
	}
}
