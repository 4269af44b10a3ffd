package storage

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// poolKeysOnShard returns n distinct fact keys of the given epoch that all
// hash onto the same shard as the first candidate — deterministic eviction
// tests need a single LRU list.
func poolKeysOnShard(p *BufPool, epoch int64, n int) []PoolKey {
	var keys []PoolKey
	var shard *poolShard
	for frag := int64(0); len(keys) < n; frag++ {
		k := PoolKey{Epoch: epoch, File: PoolFact, Frag: frag}
		s := p.shardOf(k)
		if shard == nil {
			shard = s
		}
		if s == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestBufPoolAddGetRoundtrip(t *testing.T) {
	p := NewBufPool(1 << 16)
	key := PoolKey{Epoch: 0, File: PoolBitmap, Frag: 7, Off: 3, Len: 2}
	if e := p.Get(key); e != nil {
		t.Fatal("hit on empty pool")
	}
	data := []byte{1, 2, 3, 4}
	e := p.Add(key, data)
	if e == nil {
		t.Fatal("add refused with room to spare")
	}
	if !bytes.Equal(e.Data(), data) {
		t.Fatalf("added data %v, want %v", e.Data(), data)
	}
	e.Unpin()
	h := p.Get(key)
	if h == nil {
		t.Fatal("miss after add")
	}
	if !bytes.Equal(h.Data(), data) {
		t.Fatalf("hit data %v, want %v", h.Data(), data)
	}
	h.Unpin()
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.BytesServed != 4 || st.BytesInserted != 4 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBufPoolAddDedupsConcurrentInsert(t *testing.T) {
	p := NewBufPool(1 << 16)
	key := PoolKey{Frag: 1}
	first := p.Add(key, []byte{1, 1})
	second := p.Add(key, []byte{2, 2}) // loser of a racing read: discarded
	if first == nil || second == nil {
		t.Fatal("dedup add refused")
	}
	if first != second {
		t.Fatal("duplicate key created a second entry")
	}
	if !bytes.Equal(second.Data(), []byte{1, 1}) {
		t.Fatalf("dedup served %v, want the first insert", second.Data())
	}
	first.Unpin()
	second.Unpin()
	if st := p.Stats(); st.Entries != 1 || st.UsedBytes != 2 {
		t.Fatalf("stats after dedup %+v", st)
	}
}

// TestBufPoolLRUEviction pins nothing and fills one shard past its budget:
// eviction must be strictly least-recently-used.
func TestBufPoolLRUEviction(t *testing.T) {
	p := NewBufPool(8 * 64) // 64 bytes per shard = two 32-byte entries
	keys := poolKeysOnShard(p, 0, 3)
	add := func(k PoolKey) {
		t.Helper()
		e := p.Add(k, make([]byte, 32))
		if e == nil {
			t.Fatalf("add %v refused", k)
		}
		e.Unpin()
	}
	add(keys[0])
	add(keys[1])
	// Touch keys[0] so keys[1] is the LRU.
	if e := p.Get(keys[0]); e == nil {
		t.Fatal("miss on resident entry")
	} else {
		e.Unpin()
	}
	add(keys[2]) // evicts keys[1]
	if e := p.Get(keys[1]); e != nil {
		t.Fatal("LRU entry survived eviction")
	}
	for _, k := range []PoolKey{keys[0], keys[2]} {
		e := p.Get(k)
		if e == nil {
			t.Fatalf("recently used entry %v evicted", k)
		}
		e.Unpin()
	}
	if st := p.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", st.Evictions)
	}
}

// TestBufPoolPinnedNeverEvicted is the aggregation-safety invariant: an
// entry handed to a worker stays resident and intact until Unpin, and an
// insertion that would require evicting it is refused — the budget is
// never exceeded to make room.
func TestBufPoolPinnedNeverEvicted(t *testing.T) {
	p := NewBufPool(8 * 64)
	keys := poolKeysOnShard(p, 0, 3)
	pinned := p.Add(keys[0], bytes.Repeat([]byte{0xAB}, 64)) // fills the shard, stays pinned
	if pinned == nil {
		t.Fatal("initial add refused")
	}
	if e := p.Add(keys[1], make([]byte, 64)); e != nil {
		t.Fatal("add succeeded though making room required evicting a pinned entry")
	}
	if used, budget := p.used(), p.Budget(); used > budget {
		t.Fatalf("used %d exceeds budget %d", used, budget)
	}
	if !bytes.Equal(pinned.Data(), bytes.Repeat([]byte{0xAB}, 64)) {
		t.Fatal("pinned data changed under rejected insertion")
	}
	if st := p.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", st.Rejected)
	}
	pinned.Unpin()
	// Unpinned, the entry is evictable and the same insertion now fits.
	e := p.Add(keys[2], make([]byte, 64))
	if e == nil {
		t.Fatal("add refused after unpin")
	}
	e.Unpin()
	if e := p.Get(keys[0]); e != nil {
		t.Fatal("unpinned LRU entry survived")
	}
}

func TestBufPoolRejectsOversizedEntry(t *testing.T) {
	p := NewBufPool(8 * 16)
	if e := p.Add(PoolKey{Frag: 1}, make([]byte, 64)); e != nil {
		t.Fatal("entry larger than a shard budget accepted")
	}
	if st := p.Stats(); st.Rejected != 1 || st.UsedBytes != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBufPoolInvalidateEpoch(t *testing.T) {
	p := NewBufPool(1 << 16)
	old := p.Add(PoolKey{Epoch: 0, Frag: 1}, make([]byte, 8))
	older := p.Add(PoolKey{Epoch: 0, Frag: 2}, make([]byte, 8))
	cur := p.Add(PoolKey{Epoch: 1, Frag: 1}, make([]byte, 8))
	older.Unpin()
	cur.Unpin()
	// old stays pinned: InvalidateEpoch must leave it alone.
	if n := p.InvalidateEpoch(0); n != 1 {
		t.Fatalf("invalidated %d epoch-0 entries, want 1 (one still pinned)", n)
	}
	if e := p.Get(PoolKey{Epoch: 0, Frag: 2}); e != nil {
		t.Fatal("invalidated entry still resident")
	}
	if e := p.Get(PoolKey{Epoch: 1, Frag: 1}); e == nil {
		t.Fatal("current epoch entry dropped")
	} else {
		e.Unpin()
	}
	if !bytes.Equal(old.Data(), make([]byte, 8)) {
		t.Fatal("pinned entry corrupted by invalidation")
	}
	old.Unpin()
	if n := p.InvalidateEpoch(0); n != 1 {
		t.Fatalf("second pass invalidated %d, want the previously pinned 1", n)
	}
}

// TestBufPoolHitRateMonotone replays one skewed trace (80% of accesses on
// 8 hot keys) against pools of doubling budget: strict LRU has the stack
// inclusion property per shard, and shard assignment is budget-independent
// with uniform entry sizes, so a larger pool can never hit less.
func TestBufPoolHitRateMonotone(t *testing.T) {
	const (
		entrySize = 256
		keySpace  = 64
		accesses  = 20000
	)
	rng := rand.New(rand.NewSource(42))
	trace := make([]int64, accesses)
	for i := range trace {
		if rng.Intn(10) < 8 {
			trace[i] = int64(rng.Intn(8)) // hot
		} else {
			trace[i] = int64(8 + rng.Intn(keySpace-8)) // cold
		}
	}
	replay := func(entries int) int64 {
		p := NewBufPool(int64(entries) * poolShards * entrySize) // entries per shard
		for _, frag := range trace {
			k := PoolKey{Frag: frag}
			if e := p.Get(k); e != nil {
				e.Unpin()
				continue
			}
			if e := p.Add(k, make([]byte, entrySize)); e != nil {
				e.Unpin()
			}
		}
		st := p.Stats()
		if st.UsedBytes > st.BudgetBytes {
			t.Fatalf("budget exceeded: %d > %d", st.UsedBytes, st.BudgetBytes)
		}
		if st.Rejected != 0 {
			t.Fatalf("uniform-size replay rejected %d inserts", st.Rejected)
		}
		return st.Hits
	}
	var prev int64 = -1
	for _, entries := range []int{1, 2, 4, 8, 16} {
		hits := replay(entries)
		if hits < prev {
			t.Fatalf("%d entries/shard hit %d times, smaller pool hit %d — not monotone", entries, hits, prev)
		}
		prev = hits
	}
	// The largest pool holds the whole key space: everything after the
	// first touch of a key must hit.
	if full := replay(keySpace); full != accesses-keySpace {
		t.Fatalf("fully resident pool hit %d, want %d", full, accesses-keySpace)
	}
}

// TestBufPoolConcurrentHammer drives Get/Add/Unpin/InvalidateEpoch from
// many goroutines (run under -race) and checks the budget invariant and
// counter consistency afterwards.
func TestBufPoolConcurrentHammer(t *testing.T) {
	p := NewBufPool(8 * 1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				key := PoolKey{
					Epoch: int64(rng.Intn(2)),
					File:  uint8(rng.Intn(2)),
					Frag:  int64(rng.Intn(32)),
					Off:   int32(rng.Intn(4)),
					Len:   1,
				}
				if e := p.Get(key); e != nil {
					_ = e.Data()[0]
					e.Unpin()
					continue
				}
				n := 16 << rng.Intn(5)
				if e := p.Add(key, make([]byte, n)); e != nil {
					_ = e.Data()[0]
					e.Unpin()
				}
				if i%500 == 0 {
					p.InvalidateEpoch(int64(rng.Intn(2)))
				}
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.UsedBytes > st.BudgetBytes {
		t.Fatalf("budget exceeded after hammer: %d > %d", st.UsedBytes, st.BudgetBytes)
	}
	if st.UsedBytes < 0 || st.Entries < 0 {
		t.Fatalf("negative occupancy: %+v", st)
	}
	if st.Hits+st.Misses != 8*2000 {
		t.Fatalf("lookups %d, want %d", st.Hits+st.Misses, 8*2000)
	}
	// Every entry should be unpinned now: a full invalidation must empty
	// the pool.
	p.InvalidateEpoch(0)
	p.InvalidateEpoch(1)
	if st := p.Stats(); st.Entries != 0 || st.UsedBytes != 0 {
		t.Fatalf("pool not empty after invalidating every epoch: %+v", st)
	}
}

// used returns the bytes currently resident.
func (p *BufPool) used() int64 {
	var u int64
	for i := range p.shards {
		p.shards[i].mu.Lock()
		u += p.shards[i].used
		p.shards[i].mu.Unlock()
	}
	return u
}
