package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapDefaultWorkers(t *testing.T) {
	// workers < 1 must mean GOMAXPROCS, and still complete all tasks.
	var calls atomic.Int64
	_, err := Map(context.Background(), 0, 64, func(i int) (struct{}, error) {
		calls.Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 64 {
		t.Fatalf("ran %d of 64 tasks", calls.Load())
	}
	if w := Workers(0); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := Workers(3); w != 3 {
		t.Fatalf("Workers(3) = %d", w)
	}
}

// TestMapConcurrentCallers runs many call-owned schedulers at once — the
// -race target for the control-plane fan-outs.
func TestMapConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				sum, err := Reduce(context.Background(), 4, 100,
					func(i int) (int, error) { return i + c, nil },
					func(acc *int, part int) { *acc += part })
				if err != nil {
					t.Error(err)
					return
				}
				if want := 100*99/2 + 100*c; sum != want {
					t.Errorf("caller %d: sum = %d, want %d", c, sum, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestMapLeavesNoGoroutine: the scheduler a Map call owns is closed on
// every return path — success, task error, panicking task, cancelled
// context — so no worker outlives the call.
func TestMapLeavesNoGoroutine(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	midway, cancelMidway := context.WithCancel(context.Background())
	defer cancelMidway()
	cases := []struct {
		name string
		ctx  context.Context
		fn   func(i int) (int, error)
		ok   func(error) bool
	}{
		{"success", context.Background(), func(i int) (int, error) { return i, nil },
			func(err error) bool { return err == nil }},
		{"task error", context.Background(), func(i int) (int, error) {
			if i == 7 {
				return 0, errors.New("boom")
			}
			return i, nil
		}, func(err error) bool { return err != nil }},
		{"panic", context.Background(), func(i int) (int, error) {
			if i == 7 {
				panic("poisoned task")
			}
			return i, nil
		}, func(err error) bool { return err != nil }},
		{"cancelled before", cancelled, func(i int) (int, error) { return i, nil },
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"cancelled midway", midway, func(i int) (int, error) {
			if i == 7 {
				cancelMidway()
			}
			return i, nil
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		for rep := 0; rep < 10; rep++ {
			if _, err := Map(tc.ctx, 4, 64, tc.fn); !tc.ok(err) {
				t.Fatalf("%s: unexpected err %v", tc.name, err)
			}
		}
		// Close waits for the workers, so nothing should be left; poll
		// briefly only to let unrelated runtime goroutines settle.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines before, %d after:\n%s", tc.name, before, n, buf[:runtime.Stack(buf, true)])
		}
	}
}
