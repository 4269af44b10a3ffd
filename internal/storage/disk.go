package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
)

// DiskSet models the D disks of the paper's Shared Disk configuration as
// D independent serialized I/O queues: every physical read of a page run
// is routed to one disk (per an alloc.Placement) and holds that disk
// exclusively for the configured access delay plus the transfer, so two
// reads on the same disk queue behind each other while reads on distinct
// disks proceed in parallel. This makes declustering measurable — with a
// nonzero per-disk delay, query response time is bounded below by the
// bottleneck disk's queue length, exactly the quantity the paper's
// allocation schemes minimise.
//
// Every on-disk store reads through a DiskSet — one disk unless it was
// declustered (Decluster) — and shares it with its BitmapFile, so that
// staggered bitmap placement competes for the same D disks as the fact
// fragments, as in Figure 2.
type DiskSet struct {
	disks []diskQueue
	// retry holds the read retry policy override (nil means defaults); see
	// fault.go for the retry/breaker machinery.
	retry atomic.Pointer[RetryPolicy]
}

// diskQueue is one virtual disk: a mutex serializing its accesses, an
// atomically adjustable per-access delay, access counters, and the
// disk's fault state (plan + PRNG, sticky failure, circuit breaker).
type diskQueue struct {
	mu    sync.Mutex
	delay atomic.Int64 // simulated access time, ns
	ios   atomic.Int64
	pages atomic.Int64
	// poolHits/poolPages count reads the buffer pool absorbed — accesses
	// this disk would have served without the pool. They never touch the
	// queue: a pool hit costs no disk time by construction.
	poolHits  atomic.Int64
	poolPages atomic.Int64

	// Fault machinery (fault.go). plan/rng/corruptNext are guarded by mu;
	// the breaker has its own mutex so open-state checks never queue
	// behind a slow access.
	plan   *FaultPlan
	rng    *rand.Rand
	failed atomic.Bool
	brk    breaker

	// Resilience counters.
	retries       atomic.Int64 // re-read attempts after a failed read
	trips         atomic.Int64 // breaker open transitions
	checksumFails atomic.Int64 // pages whose CRC32C did not match
	injected      atomic.Int64 // faults injected by the plan
}

// DiskStats is one disk's access counters — the observable per-disk load
// used to measure allocation balance — and its fault counters, which
// DiskSet.Sum adds up into the warehouse's ServingStats.Faults.
type DiskStats struct {
	IOs   int64
	Pages int64
	// PoolHits/PoolPages count the accesses the buffer pool served in this
	// disk's stead (attributed to the disk the placement would have routed
	// them to). IOs/Pages stay purely physical.
	PoolHits  int64
	PoolPages int64
	FaultStats
}

// FaultStats is a disk's fault-tolerance counters, or their sum over a
// disk set.
type FaultStats struct {
	// InjectedFaults counts faults the active FaultPlan injected.
	InjectedFaults int64
	// Retries counts re-read attempts after failed or corrupt reads.
	Retries int64
	// ChecksumFailures counts pages whose CRC32C did not match.
	ChecksumFailures int64
	// BreakerTrips counts circuit-breaker openings.
	BreakerTrips int64
}

// NewDiskSet builds a set of d idle virtual disks (d >= 1).
func NewDiskSet(d int) *DiskSet {
	if d < 1 {
		d = 1
	}
	return &DiskSet{disks: make([]diskQueue, d)}
}

// Disks returns the number of disks in the set.
func (ds *DiskSet) Disks() int { return len(ds.disks) }

// SetIODelay sets every disk's simulated access time — the seek + settle +
// controller latency of the paper's Table 4 disk model. Zero disables the
// delay (reads still serialize per disk). Safe to call concurrently with
// running queries.
func (ds *DiskSet) SetIODelay(d time.Duration) {
	for i := range ds.disks {
		ds.disks[i].delay.Store(int64(d))
	}
}

// Stats snapshots the per-disk access counters accumulated since the last
// ResetStats.
func (ds *DiskSet) Stats() []DiskStats {
	out := make([]DiskStats, len(ds.disks))
	for i := range ds.disks {
		out[i] = ds.disks[i].stats()
	}
	return out
}

// Sum is Stats added up over the disks, without the per-disk slice.
func (ds *DiskSet) Sum() (t DiskStats) {
	for i := range ds.disks {
		d := ds.disks[i].stats()
		t.IOs, t.Pages, t.PoolHits, t.PoolPages = t.IOs+d.IOs, t.Pages+d.Pages, t.PoolHits+d.PoolHits, t.PoolPages+d.PoolPages
		t.Retries, t.BreakerTrips = t.Retries+d.Retries, t.BreakerTrips+d.BreakerTrips
		t.ChecksumFailures, t.InjectedFaults = t.ChecksumFailures+d.ChecksumFailures, t.InjectedFaults+d.InjectedFaults
	}
	return t
}

// stats snapshots the disk's counters.
func (q *diskQueue) stats() DiskStats {
	return DiskStats{
		IOs:       q.ios.Load(),
		Pages:     q.pages.Load(),
		PoolHits:  q.poolHits.Load(),
		PoolPages: q.poolPages.Load(),
		FaultStats: FaultStats{
			InjectedFaults:   q.injected.Load(),
			Retries:          q.retries.Load(),
			ChecksumFailures: q.checksumFails.Load(),
			BreakerTrips:     q.trips.Load(),
		},
	}
}

// ResetStats zeroes the per-disk access counters.
func (ds *DiskSet) ResetStats() {
	for i := range ds.disks {
		ds.disks[i].ios.Store(0)
		ds.disks[i].pages.Store(0)
		ds.disks[i].poolHits.Store(0)
		ds.disks[i].poolPages.Store(0)
		ds.disks[i].retries.Store(0)
		ds.disks[i].trips.Store(0)
		ds.disks[i].checksumFails.Store(0)
		ds.disks[i].injected.Store(0)
	}
}

// notePoolHit records a read the buffer pool absorbed on behalf of disk
// `disk` — pure accounting, the disk queue is never entered.
func (ds *DiskSet) notePoolHit(disk, pages int) {
	q := &ds.disks[disk]
	q.poolHits.Add(1)
	q.poolPages.Add(int64(pages))
}

// do performs one physical write of `pages` pages on disk `disk` (the
// journal's; reads go through readAccess): the disk is held exclusively
// for the simulated access delay and the write itself, serializing it
// with every other access to the same disk. A sticky-failed disk refuses
// it, as it refuses reads; the fault plan's rates are per read and do
// not apply.
func (ds *DiskSet) do(disk, pages int, write func() error) error {
	q := &ds.disks[disk]
	if q.failed.Load() {
		return &FaultError{Disk: disk, Kind: FaultDiskFailed}
	}
	q.mu.Lock()
	if d := q.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	err := write()
	q.mu.Unlock()
	q.ios.Add(1)
	q.pages.Add(int64(pages))
	return err
}

// Decluster shards a store and its bitmap file (which may be nil) across
// one new DiskSet per the placement — the only way to change a store's
// disks: every later physical read of fact fragment id routes through
// disk p.FactDisk(id)'s serialized queue, and the u-th bitmap unit of its
// block through disk p.BitmapDisk(id, u) — the staggered placement of
// Figure 2 when p.Staggered is set, co-located with the fact fragment
// otherwise. Both files share the set, so they compete for the same
// disks. The placement and the pairing are validated before either file
// is touched. The executor submits a declustered store's fragment tasks
// round-robin across the disks.
func Decluster(s *Store, bf *BitmapFile, p alloc.Placement) (*DiskSet, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// A foreign bitmap file would accept the placement yet desynchronise
	// the pair's physical layout.
	if bf != nil && (bf.star != s.star || bf.spec != s.spec) {
		return nil, fmt.Errorf("storage: bitmap file belongs to a different store (schema/fragmentation mismatch)")
	}
	ds := NewDiskSet(p.Disks)
	s.disks, s.placement = ds, p
	if bf != nil {
		bf.disks, bf.placement = ds, p
	}
	return ds, nil
}
