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
// A DiskSet is shared between a Store and its BitmapFile (see Decluster)
// so that staggered bitmap placement competes for the same D disks as the
// fact fragments, as in Figure 2.
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
// used to measure allocation balance, plus its resilience counters.
type DiskStats struct {
	IOs   int64
	Pages int64
	// PoolHits/PoolPages count the accesses the buffer pool served in this
	// disk's stead (attributed to the disk the placement would have routed
	// them to). IOs/Pages stay purely physical.
	PoolHits  int64
	PoolPages int64
	// Retries counts re-read attempts after failed reads, BreakerTrips the
	// times this disk's circuit breaker opened, ChecksumFailures the pages
	// whose CRC32C did not match, and InjectedFaults the faults the active
	// FaultPlan injected.
	Retries          int64
	BreakerTrips     int64
	ChecksumFailures int64
	InjectedFaults   int64
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

// SetDiskIODelay sets one disk's access time, for modelling heterogeneous
// devices or a degraded disk.
func (ds *DiskSet) SetDiskIODelay(disk int, d time.Duration) {
	ds.disks[disk].delay.Store(int64(d))
}

// Stats snapshots the per-disk access counters accumulated since the last
// ResetStats.
func (ds *DiskSet) Stats() []DiskStats {
	out := make([]DiskStats, len(ds.disks))
	for i := range ds.disks {
		out[i] = DiskStats{
			IOs:              ds.disks[i].ios.Load(),
			Pages:            ds.disks[i].pages.Load(),
			PoolHits:         ds.disks[i].poolHits.Load(),
			PoolPages:        ds.disks[i].poolPages.Load(),
			Retries:          ds.disks[i].retries.Load(),
			BreakerTrips:     ds.disks[i].trips.Load(),
			ChecksumFailures: ds.disks[i].checksumFails.Load(),
			InjectedFaults:   ds.disks[i].injected.Load(),
		}
	}
	return out
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

// validatePlacement checks that a placement is usable with this set.
func (ds *DiskSet) validatePlacement(p alloc.Placement) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Disks != len(ds.disks) {
		return fmt.Errorf("storage: placement over %d disks, disk set has %d", p.Disks, len(ds.disks))
	}
	return nil
}

// Decluster shards the store's fact fragments across the disk set per the
// placement's fact scheme: every subsequent physical read of fragment id
// routes through disk p.FactDisk(id)'s serialized queue instead of the
// store's single implicit disk. Passing a nil set restores the single-disk
// behaviour. The executor detects a declustered store and submits its
// fragment tasks round-robin across the disks.
func (s *Store) Decluster(p alloc.Placement, ds *DiskSet) error {
	if ds == nil {
		s.disks, s.placement = nil, alloc.Placement{}
		return nil
	}
	if err := ds.validatePlacement(p); err != nil {
		return err
	}
	s.disks, s.placement = ds, p
	return nil
}

// Declustered reports the store's disk set (nil when single-disk).
func (s *Store) Declustered() *DiskSet { return s.disks }

// Placement returns the active placement (zero value when single-disk).
func (s *Store) Placement() alloc.Placement { return s.placement }

// DiskOf returns the disk holding fact fragment id (0 when single-disk).
func (s *Store) DiskOf(id int64) int {
	if s.disks == nil {
		return 0
	}
	return s.placement.FactDisk(id)
}

// Decluster shards the bitmap allocation units across the disk set: the
// u-th unit of fact fragment id's block routes through disk
// p.BitmapDisk(id, u) — the staggered placement of Figure 2 when
// p.Staggered is set, co-located with the fact fragment otherwise. Use
// the same DiskSet as the fact store so both compete for the same disks.
// Passing a nil set restores the single-disk behaviour.
func (bf *BitmapFile) Decluster(p alloc.Placement, ds *DiskSet) error {
	if ds == nil {
		bf.disks, bf.placement = nil, alloc.Placement{}
		return nil
	}
	if err := ds.validatePlacement(p); err != nil {
		return err
	}
	bf.disks, bf.placement = ds, p
	return nil
}

// Declustered reports the bitmap file's disk set (nil when single-disk).
func (bf *BitmapFile) Declustered() *DiskSet { return bf.disks }

// Decluster shards a store and its bitmap file (which may be nil) across
// one new DiskSet per the placement, atomically: the placement and the
// store/bitmap-file pairing are validated before either component is
// modified, so a failure can never leave the pair half-declustered —
// previously a bitmap-file error after the store had already switched
// would strand fact reads on the new disks while bitmap reads stayed on
// the old ones. Should a component mutation fail anyway, the store is
// rolled back to its prior disk set and placement before returning.
func Decluster(s *Store, bf *BitmapFile, p alloc.Placement) (*DiskSet, error) {
	ds := NewDiskSet(p.Disks)
	// Validate everything up front: the placement itself, and that the
	// bitmap file belongs to the store (a foreign file would accept the
	// placement today yet desynchronise the pair's physical layout).
	if err := ds.validatePlacement(p); err != nil {
		return nil, err
	}
	if bf != nil && (bf.star != s.star || bf.spec != s.spec) {
		return nil, fmt.Errorf("storage: bitmap file belongs to a different store (schema/fragmentation mismatch)")
	}
	prevDisks, prevPlacement := s.disks, s.placement
	if err := s.Decluster(p, ds); err != nil {
		return nil, err
	}
	if bf != nil {
		if err := bf.Decluster(p, ds); err != nil {
			s.disks, s.placement = prevDisks, prevPlacement // undo
			return nil, err
		}
	}
	return ds, nil
}
