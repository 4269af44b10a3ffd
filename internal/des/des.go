// Package des is a small discrete-event simulation kernel: an event
// calendar plus FCFS multi-server resources with utilisation statistics.
// It replaces the proprietary CSIM library the paper's SIMPAD simulator was
// built on (Section 5). Simulated processes are modelled as callback
// chains, which keeps runs deterministic and fast (no goroutine scheduling
// is involved).
package des

// Time is simulated time in seconds.
type Time float64

// event is one calendar entry. seq breaks ties FIFO so that simultaneous
// events fire in schedule order, keeping runs deterministic.
type event struct {
	at  Time
	seq int64
	fn  func()
}

// before orders the calendar by (at, seq), a total order: seq is unique.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Sim is one simulation run.
type Sim struct {
	now    Time
	seq    int64
	events []event // a binary min-heap under event.before
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
	s.push(event{at: s.now + delay, seq: s.seq, fn: fn})
}

// push adds e to the calendar, swapping it up past every later parent.
func (s *Sim) push(e event) {
	s.events = append(s.events, e)
	h := s.events
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes the earliest event from the calendar and returns it: the
// last event takes the root and swaps down past every earlier child.
func (s *Sim) pop() event {
	h := s.events
	top, n := h[0], len(h)-1
	h[0], h[n] = h[n], event{} // the emptied slot releases its closure
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.events = h
	return top
}

// Run executes events until the calendar is empty and returns the final
// simulated time.
func (s *Sim) Run() Time {
	for len(s.events) > 0 {
		e := s.pop()
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
