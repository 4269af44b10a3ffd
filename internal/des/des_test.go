package des

import (
	"math"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	end := s.Run()
	if end != 3 {
		t.Fatalf("end = %v", end)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim()
	var hits []Time
	s.Schedule(1, func() {
		hits = append(hits, s.Now())
		s.Schedule(1, func() {
			hits = append(hits, s.Now())
		})
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 2 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(5, func() {
		s.Schedule(-3, func() { fired = true })
	})
	s.Run()
	if !fired || s.Now() != 5 {
		t.Fatalf("fired=%v now=%v", fired, s.Now())
	}
}

func TestResourceSingleServerFCFS(t *testing.T) {
	s := NewSim()
	r := NewResource(s, "disk", 1)
	var done []Time
	for i := 0; i < 3; i++ {
		r.Use(2, func() { done = append(done, s.Now()) })
	}
	s.Run()
	want := []Time{2, 4, 6}
	if len(done) != len(want) {
		t.Fatalf("done = %v, want %v", done, want)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestResourceMultiServer(t *testing.T) {
	s := NewSim()
	r := NewResource(s, "cpu", 2)
	var done []Time
	for i := 0; i < 4; i++ {
		r.Use(3, func() { done = append(done, s.Now()) })
	}
	s.Run()
	// Two at a time: finish at 3, 3, 6, 6.
	want := []Time{3, 3, 6, 6}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	s := NewSim()
	r := NewResource(s, "disk", 1)
	r.Use(4, nil)
	s.Schedule(8, func() {}) // extend horizon to 8
	s.Run()
	if u := r.Utilization(); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestUseFuncStateDependentDuration(t *testing.T) {
	// Service time decided at grant time: the second request sees state
	// changed by the first.
	s := NewSim()
	r := NewResource(s, "disk", 1)
	pos := 0.0
	var done []Time
	service := func(target float64) func() Time {
		return func() Time {
			d := Time(math.Abs(target-pos)) + 1
			pos = target
			return d
		}
	}
	r.UseFunc(service(10), func() { done = append(done, s.Now()) }) // 10+1
	r.UseFunc(service(12), func() { done = append(done, s.Now()) }) // 2+1
	s.Run()
	if len(done) != 2 || done[0] != 11 || done[1] != 14 {
		t.Fatalf("done = %v, want [11 14]", done)
	}
}

func TestResourcePanicsOnZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResource(NewSim(), "x", 0)
}

func TestEventsRunCounter(t *testing.T) {
	s := NewSim()
	for i := 0; i < 5; i++ {
		s.Schedule(Time(i), func() {})
	}
	s.Run()
	if s.EventsRun() != 5 {
		t.Fatalf("EventsRun = %d", s.EventsRun())
	}
}

// A deterministic mini "closed queueing network": two stations, fixed
// service times; checks global balance of completions.
func TestClosedNetworkDeterministic(t *testing.T) {
	s := NewSim()
	a := NewResource(s, "a", 1)
	b := NewResource(s, "b", 2)
	completed, servedA, servedB := 0, 0, 0
	var cycle func(remaining int)
	cycle = func(remaining int) {
		if remaining == 0 {
			completed++
			return
		}
		a.Use(1, func() {
			servedA++
			b.Use(2, func() {
				servedB++
				cycle(remaining - 1)
			})
		})
	}
	for job := 0; job < 3; job++ {
		cycle(4)
	}
	s.Run()
	if completed != 3 {
		t.Fatalf("completed = %d", completed)
	}
	if servedA != 12 || servedB != 12 {
		t.Fatalf("served a=%d b=%d", servedA, servedB)
	}
}
