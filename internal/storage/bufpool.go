package storage

import (
	"sync"
	"sync/atomic"
)

// BufPool is the granule/page buffer pool between the executor's read
// paths and the physical files: a fixed byte budget of recently read
// units — fact prefetch granules and bitmap allocation units — shared by
// every query of a warehouse. Entries are keyed by
// (epoch, file, fragment, offset, length), so an epoch roll-over
// (compaction swapping in the next backend) invalidates the old epoch's
// pages for free: the new backend's reads simply key differently, and the
// retired epoch's entries age out of the LRU (or are dropped eagerly via
// InvalidateEpoch once the epoch's last pinned query finishes).
//
// The pool is sharded: each shard owns a slice of the byte budget, its
// own hash map and an exact LRU list, under its own mutex — so concurrent
// fragment workers do not serialise on one lock. Within a shard eviction
// is strict LRU over the unpinned entries; pinned entries (handed to a
// worker that is still aggregating from them) are never evicted, and an
// insertion that cannot make room without evicting a pinned entry or
// exceeding the budget is refused instead — the caller then serves the
// read from its private buffer and nothing is cached. The budget is
// therefore a hard ceiling, never exceeded.
//
// All methods are safe for concurrent use.
type BufPool struct {
	shards []poolShard

	hits      atomic.Int64
	misses    atomic.Int64
	served    atomic.Int64 // bytes served from the pool (hits)
	inserted  atomic.Int64 // bytes read and cached (successful Adds)
	evictions atomic.Int64
	rejected  atomic.Int64 // Adds refused (would exceed budget / all pinned)
}

// File kinds of a PoolKey.
const (
	// PoolFact keys a fact prefetch granule: Off is the first page within
	// the fragment, Len the page count.
	PoolFact uint8 = iota
	// PoolBitmap keys one bitmap allocation unit: Off is the unit's index
	// within the fragment's block, Len the page count.
	PoolBitmap
)

// PoolKey identifies one cached read unit.
type PoolKey struct {
	// Epoch is the serving epoch of the backend the unit was read from.
	Epoch int64
	// File distinguishes fact granules from bitmap units.
	File uint8
	// Frag is the fact fragment id.
	Frag int64
	// Off locates the unit within the fragment (see PoolFact/PoolBitmap).
	Off int32
	// Len is the unit's page count.
	Len int32
}

// PoolEntry is one resident read unit. Entries returned by Get and Add
// are pinned: the data is guaranteed valid — never evicted, never
// overwritten — until Unpin.
type PoolEntry struct {
	key  PoolKey
	data []byte

	// Guarded by the owning shard's mutex.
	pins       int32
	prev, next *PoolEntry // LRU list (front = most recent)
	resident   bool

	shard *poolShard
}

// Data returns the entry's pages. Valid until Unpin.
func (e *PoolEntry) Data() []byte { return e.data }

// Unpin releases the caller's pin, making the entry evictable again once
// every pin is released.
func (e *PoolEntry) Unpin() {
	e.shard.mu.Lock()
	e.pins--
	e.shard.mu.Unlock()
}

// poolShard is one budget slice with its own exact LRU.
type poolShard struct {
	mu     sync.Mutex
	m      map[PoolKey]*PoolEntry
	head   *PoolEntry // most recently used
	tail   *PoolEntry // least recently used
	used   int64
	budget int64
}

// PoolStats is a snapshot of the pool's warehouse-wide counters.
type PoolStats struct {
	// Hits and Misses count lookups; a hit served the read unit without
	// any physical I/O.
	Hits, Misses int64
	// BytesServed is the total bytes served from the pool (hits).
	BytesServed int64
	// BytesInserted is the total bytes read from disk and cached.
	BytesInserted int64
	// Evictions counts entries evicted to make room.
	Evictions int64
	// Rejected counts insertions refused because making room would have
	// evicted a pinned entry or exceeded the budget.
	Rejected int64
	// UsedBytes and BudgetBytes describe the current occupancy against the
	// hard byte ceiling.
	UsedBytes   int64
	BudgetBytes int64
	// Entries is the number of resident read units.
	Entries int
}

// HitRate returns Hits/(Hits+Misses), 0 when nothing was looked up.
func (st PoolStats) HitRate() float64 {
	if n := st.Hits + st.Misses; n > 0 {
		return float64(st.Hits) / float64(n)
	}
	return 0
}

// poolShards is the fixed shard count. Small enough that tiny test
// budgets still give each shard useful room, large enough to spread the
// worker fan-out.
const poolShards = 8

// NewBufPool builds a pool with the given byte budget (values below one
// page are clamped to one shard-page each so the pool stays usable).
func NewBufPool(budget int64) *BufPool {
	if budget < poolShards {
		budget = poolShards
	}
	p := &BufPool{shards: make([]poolShard, poolShards)}
	per := budget / poolShards
	rem := budget - per*poolShards
	for i := range p.shards {
		p.shards[i].m = make(map[PoolKey]*PoolEntry)
		p.shards[i].budget = per
		if int64(i) < rem {
			p.shards[i].budget++
		}
	}
	return p
}

// Budget returns the pool's total byte budget.
func (p *BufPool) Budget() int64 {
	var b int64
	for i := range p.shards {
		b += p.shards[i].budget
	}
	return b
}

// Used returns the bytes currently resident.
func (p *BufPool) Used() int64 {
	var u int64
	for i := range p.shards {
		p.shards[i].mu.Lock()
		u += p.shards[i].used
		p.shards[i].mu.Unlock()
	}
	return u
}

// Stats snapshots the pool counters.
func (p *BufPool) Stats() PoolStats {
	st := PoolStats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		BytesServed:   p.served.Load(),
		BytesInserted: p.inserted.Load(),
		Evictions:     p.evictions.Load(),
		Rejected:      p.rejected.Load(),
	}
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		st.UsedBytes += s.used
		st.BudgetBytes += s.budget
		st.Entries += len(s.m)
		s.mu.Unlock()
	}
	return st
}

// shardOf hashes a key onto its shard.
func (p *BufPool) shardOf(key PoolKey) *poolShard {
	h := uint64(key.Frag)*0x9e3779b97f4a7c15 ^
		uint64(uint32(key.Off))*0xff51afd7ed558ccd ^
		uint64(key.Epoch)<<17 ^ uint64(key.File)<<8 ^ uint64(uint32(key.Len))
	h ^= h >> 33
	return &p.shards[h%uint64(len(p.shards))]
}

// Get looks the key up, returning a pinned entry on a hit and nil on a
// miss. The caller must Unpin the entry when done reading its data.
func (p *BufPool) Get(key PoolKey) *PoolEntry {
	s := p.shardOf(key)
	s.mu.Lock()
	e := s.m[key]
	if e == nil {
		s.mu.Unlock()
		p.misses.Add(1)
		return nil
	}
	e.pins++
	s.moveToFront(e)
	s.mu.Unlock()
	p.hits.Add(1)
	p.served.Add(int64(len(e.data)))
	return e
}

// Add inserts a freshly read unit, taking ownership of data, and returns
// the entry pinned. If the key is already resident (a concurrent reader
// inserted it first), the existing entry is pinned and returned and data
// is discarded. If room cannot be made without evicting a pinned entry or
// exceeding the byte budget, Add returns nil and caches nothing — the
// caller keeps serving from data, which stays private. The caller must
// Unpin a non-nil result when done.
func (p *BufPool) Add(key PoolKey, data []byte) *PoolEntry {
	s := p.shardOf(key)
	n := int64(len(data))
	s.mu.Lock()
	if e := s.m[key]; e != nil {
		e.pins++
		s.moveToFront(e)
		s.mu.Unlock()
		return e
	}
	if n > s.budget {
		s.mu.Unlock()
		p.rejected.Add(1)
		return nil
	}
	// Evict strictly least-recently-used unpinned entries until it fits.
	evicted := 0
	for s.used+n > s.budget {
		victim := s.tail
		for victim != nil && victim.pins > 0 {
			victim = victim.prev
		}
		if victim == nil {
			// Every resident entry is pinned mid-aggregation: refuse rather
			// than exceed the budget (undoing partial evictions is pointless
			// — they were the coldest entries either way).
			s.mu.Unlock()
			p.rejected.Add(1)
			p.evictions.Add(int64(evicted))
			return nil
		}
		s.remove(victim)
		evicted++
	}
	e := &PoolEntry{key: key, data: data, pins: 1, shard: s}
	s.m[key] = e
	s.pushFront(e)
	e.resident = true
	s.used += n
	s.mu.Unlock()
	p.inserted.Add(n)
	p.evictions.Add(int64(evicted))
	return e
}

// InvalidateEpoch drops every unpinned entry of the epoch, returning the
// number dropped. Called when a retired epoch's last pinned query
// finishes; any entry still pinned (there should be none by then) is
// left to age out of the LRU.
func (p *BufPool) InvalidateEpoch(epoch int64) int {
	dropped := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for key, e := range s.m {
			if key.Epoch == epoch && e.pins == 0 {
				s.remove(e)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	p.evictions.Add(int64(dropped))
	return dropped
}

// remove unlinks an entry from the shard (mutex held).
func (s *poolShard) remove(e *PoolEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.resident = false
	delete(s.m, e.key)
	s.used -= int64(len(e.data))
}

// pushFront links an entry at the MRU end (mutex held).
func (s *poolShard) pushFront(e *PoolEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// moveToFront marks an entry most recently used (mutex held).
func (s *poolShard) moveToFront(e *PoolEntry) {
	if s.head == e {
		return
	}
	// Unlink (without the map/used bookkeeping of remove).
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
}
