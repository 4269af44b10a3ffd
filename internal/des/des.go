// Package des is a small discrete-event simulation kernel: an event
// calendar plus FCFS multi-server resources with utilisation statistics.
// It replaces the proprietary CSIM library the paper's SIMPAD simulator was
// built on (Section 5). Simulated processes are modelled as callback
// chains, which keeps runs deterministic and fast (no goroutine scheduling
// is involved).
package des

import "container/heap"

// Time is simulated time in seconds.
type Time float64

// event is one calendar entry. seq breaks ties FIFO so that simultaneous
// events fire in schedule order, keeping runs deterministic.
type event struct {
	at  Time
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is one simulation run.
type Sim struct {
	now    Time
	seq    int64
	events eventHeap
	nRun   int64
}

// NewSim returns an empty simulation at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// EventsRun returns the number of events executed so far.
func (s *Sim) EventsRun() int64 { return s.nRun }

// Schedule runs fn after the given delay of simulated time. A negative
// delay is treated as zero.
func (s *Sim) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	heap.Push(&s.events, event{at: s.now + delay, seq: s.seq, fn: fn})
}

// Run executes events until the calendar is empty and returns the final
// simulated time.
func (s *Sim) Run() Time {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(event)
		s.now = e.at
		s.nRun++
		e.fn()
	}
	return s.now
}

// Resource is a FCFS multi-server queueing station (CSIM "facility").
// Requests are granted in arrival order as servers free up.
type Resource struct {
	sim     *Sim
	Name    string
	servers int

	busy  int
	queue []request

	// statistics
	lastChange Time
	busyArea   float64 // integral of busy servers over time
}

type request struct {
	durFn func() Time
	done  func()
}

// NewResource creates a resource with the given number of identical
// servers.
func NewResource(sim *Sim, name string, servers int) *Resource {
	if servers <= 0 {
		panic("des: resource needs at least one server")
	}
	return &Resource{sim: sim, Name: name, servers: servers}
}

// Use requests one server, holds it for d, releases it and then calls done
// (which may be nil).
func (r *Resource) Use(d Time, done func()) {
	r.UseFunc(func() Time { return d }, done)
}

// UseFunc is Use with the service time computed at grant time — needed for
// state-dependent service times such as disk seeks that depend on the
// current head position when service starts.
func (r *Resource) UseFunc(durFn func() Time, done func()) {
	r.accumulate()
	if r.busy < r.servers {
		r.busy++
		r.start(request{durFn: durFn, done: done})
		return
	}
	r.queue = append(r.queue, request{durFn: durFn, done: done})
}

func (r *Resource) start(req request) {
	d := req.durFn()
	r.sim.Schedule(d, func() {
		r.accumulate()
		if len(r.queue) > 0 {
			next := r.queue[0]
			r.queue = r.queue[1:]
			r.start(next)
		} else {
			r.busy--
		}
		if req.done != nil {
			req.done()
		}
	})
}

func (r *Resource) accumulate() {
	dt := float64(r.sim.now - r.lastChange)
	r.busyArea += dt * float64(r.busy)
	r.lastChange = r.sim.now
}

// Utilization returns the mean fraction of busy servers over [0, now].
func (r *Resource) Utilization() float64 {
	r.accumulate()
	t := float64(r.sim.now)
	if t == 0 {
		return 0
	}
	return r.busyArea / t / float64(r.servers)
}
