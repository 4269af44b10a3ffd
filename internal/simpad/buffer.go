package simpad

import "container/list"

// bufferKey identifies one prefetch granule in the buffer pool.
type bufferKey struct {
	bitmap  bool
	frag    int64
	index   int // bitmap number or fact granule index
	granule int // granule within a bitmap fragment
}

// lruBuffer is a page-granular LRU buffer pool tracked at prefetch-granule
// granularity (a granule is cached or not as a whole, matching the
// simulator's I/O unit). Capacity is counted in pages.
type lruBuffer struct {
	capPages int
	used     int
	order    *list.List // front = most recent; values are *bufferEntry
	entries  map[bufferKey]*list.Element

	hits, misses int64
}

type bufferEntry struct {
	key   bufferKey
	pages int
}

func newLRUBuffer(capPages int) *lruBuffer {
	return &lruBuffer{
		capPages: capPages,
		order:    list.New(),
		entries:  make(map[bufferKey]*list.Element),
	}
}

// lookup reports whether the granule is cached, updating recency and stats.
func (b *lruBuffer) lookup(k bufferKey) bool {
	if el, ok := b.entries[k]; ok {
		b.order.MoveToFront(el)
		b.hits++
		return true
	}
	b.misses++
	return false
}

// insert caches a granule of the given page count, evicting LRU granules
// as needed. Granules larger than the pool are not cached.
func (b *lruBuffer) insert(k bufferKey, pages int) {
	if pages > b.capPages {
		return
	}
	if el, ok := b.entries[k]; ok {
		b.order.MoveToFront(el)
		return
	}
	for b.used+pages > b.capPages {
		back := b.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*bufferEntry)
		b.order.Remove(back)
		delete(b.entries, e.key)
		b.used -= e.pages
	}
	b.entries[k] = b.order.PushFront(&bufferEntry{key: k, pages: pages})
	b.used += pages
}
