package exec

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestSchedulerShedsOverLimit(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	s.SetLimit(1)

	// Hold one admitted execution in flight, then a second admission must
	// shed with ErrOverloaded.
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := MapOn(context.Background(), s, 1,
			func() struct{} { return struct{}{} },
			func(_ struct{}, i int) (int, error) {
				close(started)
				<-release
				return i, nil
			})
		if err != nil {
			t.Errorf("admitted execution failed: %v", err)
		}
	}()
	<-started
	_, err := MapOn(context.Background(), s, 1,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (int, error) { return i, nil })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second admission returned %v, want ErrOverloaded", err)
	}
	close(release)
	wg.Wait()

	st := s.Stats()
	if st.Shed != 1 || st.AdmitLimit != 1 {
		t.Fatalf("stats = shed %d limit %d, want 1/1", st.Shed, st.AdmitLimit)
	}
	// With the limit cleared, admission is unbounded again.
	s.SetLimit(0)
	if _, err := MapOn(context.Background(), s, 1,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (int, error) { return i, nil }); err != nil {
		t.Fatalf("unbounded admission failed: %v", err)
	}
}

func TestSchedulerRecoversTaskPanic(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	_, err := MapOn(context.Background(), s, 4,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (int, error) {
			if i == 2 {
				panic("poisoned task")
			}
			return i, nil
		})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking task returned %v, want panic-derived error", err)
	}
	// The shared pool survives: later executions run normally.
	res, err := MapOn(context.Background(), s, 3,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (int, error) { return i * i, nil })
	if err != nil || len(res) != 3 || res[2] != 4 {
		t.Fatalf("pool dead after panic: res=%v err=%v", res, err)
	}
	if st := s.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight = %d after panic, want 0", st.InFlight)
	}
}
