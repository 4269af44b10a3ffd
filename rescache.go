package mdhf

import (
	"context"
	"time"

	"repro/internal/frag"
	"repro/internal/kernel"
)

// resCache is the warehouse's query-result cache (level 2 of the caching
// stack; level 1 is the storage buffer pool). Entries are keyed by the
// canonical query text (frag.Format round-trips exactly, so distinct
// texts are distinct queries) and validated against the serving state the
// result was computed for — (epoch, DeltaSet.MaxSeq). The cache maintains
// one invariant: every cached entry and every non-poisoned pending
// computation is keyed at the warehouse's *current* state. Appends and
// compactions uphold it in the same critical section that publishes the
// new state:
//
//   - Append evicts exactly the entries whose confinement region contains
//     a touched fragment (a query result depends only on its relevant
//     fragments' rows, so everything else is re-keyed to the new MaxSeq
//     and keeps hitting) and poisons intersecting pending computations —
//     their result is delivered to waiting followers, never stored.
//   - Compaction is result-neutral (the rebuilt backend serves
//     byte-identical results), so the epoch swap re-keys everything.
//
// Lookup pins the snapshot and consults the cache under the same state
// mutex, so a hit is always consistent with the pinned state and a
// computed result is stored atomically with respect to invalidations.
//
// Identical concurrent executions collapse onto one computation
// (singleflight): the first becomes the leader, later ones wait for its
// result while holding their own snapshot pin — if the leader fails (its
// own cancellation, say), each follower falls back to computing on its
// own pinned snapshot.
//
// All fields are guarded by the store's state lock (epoch.Store.Lock).
type resCache struct {
	cap     int
	entries map[string]*resEntry
	head    *resEntry // most recently used
	tail    *resEntry
	pending map[string]*resPending

	hits          int64
	misses        int64
	shared        int64
	invalidations int64
	rekeys        int64
}

// resEntry is one cached query result.
type resEntry struct {
	text   string
	epoch  int64
	maxSeq uint64
	region frag.Region // the query's confinement, for append invalidation

	res       Result // deep-copied; copied again on every hit
	deltaRows int64

	prev, next *resEntry
}

// resPending is one in-flight computation identical executions collapse
// onto.
type resPending struct {
	text   string
	epoch  int64
	maxSeq uint64
	region frag.Region

	done      chan struct{} // closed by the leader when res/err are set
	res       Result
	deltaRows int64
	err       error

	// poisoned marks the computation's snapshot invalidated by an append
	// that touched its region: the result still reaches followers (it is
	// correct for the snapshot they pinned) but is never stored.
	poisoned bool
}

func newResCache(capacity int) *resCache {
	return &resCache{
		cap:     capacity,
		entries: make(map[string]*resEntry, capacity),
		pending: make(map[string]*resPending),
	}
}

// CacheStats is the warehouse-wide caching snapshot surfaced in
// ServingStats.Cache.
type CacheStats struct {
	// Hits/Misses count result-cache lookups at Execute admission.
	Hits, Misses int64
	// Shared counts executions served by joining an identical in-flight
	// computation (singleflight followers).
	Shared int64
	// Invalidations counts entries evicted (and in-flight computations
	// poisoned) by appends touching their fragments.
	Invalidations int64
	// Rekeys counts entries revalidated in place: untouched by an append,
	// or carried across a result-neutral compaction.
	Rekeys int64
	// Entries/Capacity describe the result cache's occupancy.
	Entries, Capacity int
	// Pool is the buffer pool's counter snapshot (zero without a pool).
	Pool PoolStats
}

// copyResult deep-copies a result so cache residents never alias caller-
// visible slices (Row.Members is mutable).
func copyResult(r Result) Result {
	out := r
	if r.Groups != nil {
		out.Groups = make([]kernel.Row, len(r.Groups))
		for i, g := range r.Groups {
			out.Groups[i] = g
			if g.Members != nil {
				out.Groups[i].Members = append([]int(nil), g.Members...)
			}
		}
	}
	return out
}

// get returns the entry valid for the given serving state, refreshing its
// recency (state lock held).
func (c *resCache) get(text string, epoch int64, maxSeq uint64) *resEntry {
	e := c.entries[text]
	if e == nil || e.epoch != epoch || e.maxSeq != maxSeq {
		return nil
	}
	c.moveToFront(e)
	return e
}

// put stores a computed result under the pending computation's (possibly
// re-keyed) state, evicting the least recently used entry when at
// capacity (state lock held).
func (c *resCache) put(text string, epoch int64, maxSeq uint64, region frag.Region, res Result, deltaRows int64) {
	if c.cap < 1 {
		return
	}
	if old := c.entries[text]; old != nil {
		c.remove(old)
	}
	for len(c.entries) >= c.cap {
		c.remove(c.tail)
	}
	e := &resEntry{text: text, epoch: epoch, maxSeq: maxSeq, region: region, res: res, deltaRows: deltaRows}
	c.entries[text] = e
	c.pushFront(e)
}

// invalidate applies one append's effect: entries and pending
// computations whose region contains a touched fragment are evicted
// respectively poisoned; everything else is re-keyed to the new MaxSeq
// (the appended rows cannot change their results). Called in the same
// critical section that publishes the new delta set (state lock held).
func (c *resCache) invalidate(spec *frag.Spec, touched []int64, newSeq uint64) {
	coords := make([][]int, len(touched))
	for i, id := range touched {
		coords[i] = spec.Coord(id)
	}
	for e := c.head; e != nil; {
		next := e.next
		if regionTouches(e.region, coords) {
			c.remove(e)
			c.invalidations++
		} else {
			e.maxSeq = newSeq
			c.rekeys++
		}
		e = next
	}
	for _, pd := range c.pending {
		if pd.poisoned {
			continue
		}
		if regionTouches(pd.region, coords) {
			pd.poisoned = true
			c.invalidations++
		} else {
			pd.maxSeq = newSeq
		}
	}
}

// rekeyAll carries every entry and non-poisoned pending computation
// across a result-neutral compaction to the new epoch's state. Called in
// the same critical section as the snapshot swap (state lock held).
func (c *resCache) rekeyAll(epoch int64, maxSeq uint64) {
	for e := c.head; e != nil; e = e.next {
		e.epoch, e.maxSeq = epoch, maxSeq
		c.rekeys++
	}
	for _, pd := range c.pending {
		if pd.poisoned {
			continue
		}
		pd.epoch, pd.maxSeq = epoch, maxSeq
	}
}

// regionTouches reports whether any touched fragment coordinate falls
// inside the region (per-attribute half-open member ranges).
func regionTouches(r frag.Region, coords [][]int) bool {
	for _, coord := range coords {
		inside := true
		for i := range coord {
			if coord[i] < r.Lo[i] || coord[i] >= r.Hi[i] {
				inside = false
				break
			}
		}
		if inside {
			return true
		}
	}
	return false
}

func (c *resCache) remove(e *resEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(c.entries, e.text)
}

func (c *resCache) pushFront(e *resEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *resCache) moveToFront(e *resEntry) {
	if c.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
}

// executeCached is Execute's result-cache path: pin + lookup + pending
// registration happen in one state-mutex critical section, so the lookup
// key always matches the pinned snapshot and a computed result can never
// be stored after an invalidation it should have observed. begin() is
// already held by the caller.
func (p *PreparedQuery) executeCached(ctx context.Context) (Result, Stats, error) {
	w := p.w
	start := time.Now()
	text := frag.Format(w.star, p.q)

	w.store.Lock()
	snap, err := w.store.PinLocked()
	if err != nil {
		w.store.Unlock()
		return Result{}, Stats{}, err
	}
	seq := snap.Deltas.MaxSeq()
	c := w.rcache
	if e := c.get(text, snap.Epoch, seq); e != nil {
		c.hits++
		res := copyResult(e.res)
		deltaRows := e.deltaRows
		w.store.Unlock()
		w.store.Unpin(snap.B)
		st := w.baseStats(snap)
		st.CacheHit = true
		st.DeltaRows = deltaRows
		st.Wall = time.Since(start)
		return res, st, nil
	}
	c.misses++
	if pd := c.pending[text]; pd != nil && pd.epoch == snap.Epoch && pd.maxSeq == seq && !pd.poisoned {
		w.store.Unlock()
		defer w.store.Unpin(snap.B)
		select {
		case <-ctx.Done():
			return Result{}, Stats{}, ctx.Err()
		case <-pd.done:
		}
		if pd.err == nil {
			w.store.Lock()
			c.shared++
			w.store.Unlock()
			st := w.baseStats(snap)
			st.Shared = true
			st.DeltaRows = pd.deltaRows
			st.Wall = time.Since(start)
			return copyResult(pd.res), st, nil
		}
		// The leader failed — possibly its own cancellation, which must not
		// fail this execution. Compute on our own pinned snapshot.
		res, st, err := p.executeOn(ctx, snap)
		st.Wall = time.Since(start)
		return res, st, err
	}
	if c.pending[text] != nil {
		// A pending computation exists for a different state (poisoned or
		// from an older snapshot): compute solo, without collapsing.
		w.store.Unlock()
		defer w.store.Unpin(snap.B)
		res, st, err := p.executeOn(ctx, snap)
		st.Wall = time.Since(start)
		return res, st, err
	}
	pd := &resPending{
		text: text, epoch: snap.Epoch, maxSeq: seq,
		region: w.spec.Relevant(p.q),
		done:   make(chan struct{}),
	}
	c.pending[text] = pd
	w.store.Unlock()

	defer w.store.Unpin(snap.B)
	res, st, err := p.executeOn(ctx, snap)
	w.store.Lock()
	if c.pending[pd.text] == pd {
		delete(c.pending, pd.text)
	}
	if err == nil {
		shared := copyResult(res)
		pd.res, pd.deltaRows = shared, st.DeltaRows
		if !pd.poisoned {
			// pd's state was re-keyed alongside every invalidation that left
			// the result valid, so storing under it is sound.
			c.put(pd.text, pd.epoch, pd.maxSeq, pd.region, shared, st.DeltaRows)
		}
	}
	pd.err = err
	w.store.Unlock()
	close(pd.done)
	st.Wall = time.Since(start)
	return res, st, err
}
