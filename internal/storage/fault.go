package storage

// Fault model: the paper spreads fragments and bitmaps over up to 100+
// disks, which multiplies the failure surface — this file gives the
// storage layer a deterministic fault model and the machinery to survive
// it. A FaultPlan injects transient read errors, latency spikes, sticky
// (permanent) disk failures and corrupt pages into a DiskSet's per-disk
// queues, seeded so every run is reproducible. Every physical read is
// wrapped in a RetryPolicy (exponential backoff with jitter, context
// aware) and verified against its CRC32C page checksums; repeated
// exhausted reads trip a per-disk circuit breaker that fails subsequent
// reads fast instead of hanging a query on a dead disk. All failures
// surface as typed *FaultError values carrying disk/file/fragment/offset
// context, never bare I/O errors.

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"time"
)

// castagnoli is the CRC32C table shared by every page and record
// checksum (hardware-accelerated by hash/crc32 on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// pageCRC computes the stored checksum of one page.
func pageCRC(page []byte) uint32 { return crc32.Checksum(page, castagnoli) }

// FaultKind classifies a storage fault.
type FaultKind int

const (
	// FaultTransient is a transient read error: an injected or real I/O
	// error that a retry may clear.
	FaultTransient FaultKind = iota
	// FaultChecksum is a page whose CRC32C did not match — a corrupt
	// read. Retries re-read from the medium.
	FaultChecksum
	// FaultDiskFailed is a sticky (permanent) disk failure: every access
	// to the disk errors until it is revived.
	FaultDiskFailed
	// FaultBreakerOpen means the disk's circuit breaker is open after
	// repeated exhausted reads: the read failed fast without touching the
	// disk.
	FaultBreakerOpen
)

func (k FaultKind) String() string {
	switch k {
	case FaultTransient:
		return "transient"
	case FaultChecksum:
		return "checksum"
	case FaultDiskFailed:
		return "disk-failed"
	case FaultBreakerOpen:
		return "breaker-open"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultError is the typed failure every storage read surfaces: which
// disk, which file, which fragment and byte offset, and what kind of
// fault — so a failure observed at the warehouse surface is diagnosable
// down to the physical access that caused it. It wraps the underlying
// error (errors.Is/As see through it).
type FaultError struct {
	// Disk is the virtual disk the access routed to (0 on a single-disk
	// store).
	Disk int
	// File names the component: "fact", "bitmaps" or "delta".
	File string
	// Frag is the fragment the read belonged to (-1 when not
	// fragment-scoped, e.g. a journal scan).
	Frag int64
	// Offset is the byte offset of the failed read within the file.
	Offset int64
	// Kind classifies the fault.
	Kind FaultKind
	// Err is the underlying cause (nil for pure injected faults).
	Err error
}

func (e *FaultError) Error() string {
	msg := fmt.Sprintf("storage: %s read failed (disk %d, fragment %d, offset %d): %s",
		e.File, e.Disk, e.Frag, e.Offset, e.Kind)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *FaultError) Unwrap() error { return e.Err }

// FaultPlan is a deterministic, seedable per-disk fault plan. Installed
// on a DiskSet (SetFaultPlan / WithFaultPlan), it drives one independent
// PRNG per disk — seeded from Seed and the disk index — so the fault
// sequence each disk sees is reproducible at any worker count or
// admission mix. Rates are per physical read attempt; retries therefore
// see fresh draws, which is what lets a retried read clear a transient
// fault.
type FaultPlan struct {
	// Seed drives the per-disk fault PRNGs (0 means 1).
	Seed int64
	// ReadErrorRate is the probability that a physical read fails with a
	// transient error.
	ReadErrorRate float64
	// CorruptRate is the probability that a physical read silently
	// corrupts the returned pages (caught by checksum verification).
	CorruptRate float64
	// LatencySpikeRate is the probability that a physical read stalls for
	// an extra LatencySpike on top of the disk's access delay.
	LatencySpikeRate float64
	// LatencySpike is the stall added on a latency spike.
	LatencySpike time.Duration
	// FailDisks lists disks that are permanently failed from the start
	// (equivalent to calling FailDisk on each).
	FailDisks []int
}

// errInjectedRead is the underlying cause of injected transient errors.
var errInjectedRead = errors.New("injected transient read error")

// RetryPolicy wraps every physical disk read: failed attempts back off
// exponentially (with jitter, context-aware) and re-read; a read that
// exhausts its attempts strikes the disk's circuit breaker, and
// BreakerTrips consecutive strikes open the breaker — subsequent reads
// fail fast with FaultBreakerOpen instead of burning retry budget on a
// dead disk. After BreakerCooldown one probe read is let through
// (half-open); its success closes the breaker.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per read, including the
	// first (values below 1 mean the default).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it, plus up to 100% jitter, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry delay.
	MaxBackoff time.Duration
	// BreakerThreshold is the number of consecutive exhausted reads that
	// opens a disk's circuit breaker (values below 1 mean the default).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects reads before
	// letting one probe through.
	BreakerCooldown time.Duration
}

// DefaultRetryPolicy returns the policy every read runs under unless
// SetRetryPolicy overrides it: 6 attempts, 100µs base backoff doubling
// to at most 5ms, breaker opening after 3 consecutive exhausted reads
// with a 250ms cooldown.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:      6,
		BaseBackoff:      100 * time.Microsecond,
		MaxBackoff:       5 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  250 * time.Millisecond,
	}
}

// Normalize fills zero fields with the defaults.
func (p RetryPolicy) Normalize() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts < 1 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	if p.BreakerThreshold < 1 {
		p.BreakerThreshold = d.BreakerThreshold
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = d.BreakerCooldown
	}
	return p
}

// breaker is one disk's circuit-breaker state, guarded by its own small
// mutex (never held across a physical access).
type breaker struct {
	mu       sync.Mutex
	strikes  int  // consecutive exhausted reads
	open     bool // rejecting reads
	probing  bool // one half-open probe in flight
	openedAt time.Time
}

// faultSite locates a read for error wrapping.
type faultSite struct {
	file string
	frag int64
	off  int64
}

// siteError wraps err (already a *FaultError or a bare cause) with the
// site's file/fragment/offset and the disk.
func (s faultSite) wrap(disk int, kind FaultKind, err error) *FaultError {
	var fe *FaultError
	if errors.As(err, &fe) {
		// Keep the innermost fault's kind and cause; fill in the site.
		return &FaultError{Disk: disk, File: s.file, Frag: s.frag, Offset: s.off, Kind: fe.Kind, Err: fe.Err}
	}
	return &FaultError{Disk: disk, File: s.file, Frag: s.frag, Offset: s.off, Kind: kind, Err: err}
}

// retryRead runs one logical page-run read under the retry policy:
// read performs the physical access (routed through ds's per-disk
// queue when ds is non-nil) and fills the destination buffer; corrupt
// flips bytes in that buffer when the fault plan injects corruption
// (applied inside the disk's critical section; nil disables injection
// for this read); verify checks the buffer's checksums (nil when the
// caller has none). Failed attempts back off and re-read; exhausted
// reads strike the breaker; breaker-open and context errors return
// immediately. ds may be nil (single implicit disk): no faults are
// injected and no breaker applies, but verification and retries still
// run under the default policy.
func retryRead(ctx context.Context, ds *DiskSet, disk, pages int, site faultSite, read func() error, corrupt func(), verify func() error) error {
	pol := DefaultRetryPolicy()
	if ds != nil {
		pol = ds.policy()
	}
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			if ds != nil {
				ds.disks[disk].retries.Add(1)
			}
			if err := backoff(ctx, pol, attempt); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if ds != nil {
			err = ds.readAccess(disk, pages, read, corrupt)
		} else {
			err = read()
		}
		if err == nil && verify != nil {
			err = verify()
			if err != nil && ds != nil {
				ds.disks[disk].checksumFails.Add(1)
			}
		}
		if err == nil {
			if ds != nil {
				ds.breakerOK(disk)
			}
			return nil
		}
		lastErr = err
		var fe *FaultError
		if errors.As(err, &fe) && (fe.Kind == FaultBreakerOpen || fe.Kind == FaultDiskFailed) {
			// The disk is known dead (sticky failure or open breaker):
			// fail fast, no retries.
			return site.wrap(disk, fe.Kind, err)
		}
	}
	if ds != nil {
		ds.breakerStrike(disk, pol)
	}
	return site.wrap(disk, FaultTransient, lastErr)
}

// backoff sleeps the attempt's exponential backoff with full jitter,
// returning early (with ctx.Err) on cancellation.
func backoff(ctx context.Context, pol RetryPolicy, attempt int) error {
	d := pol.BaseBackoff << uint(attempt-1)
	if d > pol.MaxBackoff || d <= 0 {
		d = pol.MaxBackoff
	}
	// Full jitter: a uniform draw in (0, d]. Jitter never affects query
	// results, so the global PRNG's nondeterminism is harmless.
	d = time.Duration(rand.Int63n(int64(d))) + 1
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// SetFaultPlan installs (or, with nil, removes) the fault plan: each
// disk gets an independent PRNG seeded from plan.Seed and its index, and
// plan.FailDisks are marked sticky-failed. Call before queries run; the
// plan is read under each disk's queue mutex.
func (ds *DiskSet) SetFaultPlan(plan *FaultPlan) {
	for i := range ds.disks {
		q := &ds.disks[i]
		q.mu.Lock()
		if plan == nil {
			q.plan, q.rng = nil, nil
		} else {
			seed := plan.Seed
			if seed == 0 {
				seed = 1
			}
			q.plan = plan
			q.rng = rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		}
		q.mu.Unlock()
	}
	if plan != nil {
		for _, d := range plan.FailDisks {
			ds.FailDisk(d)
		}
	}
}

// SetRetryPolicy overrides the read retry policy (zero fields keep
// their defaults). Safe to call before queries run.
func (ds *DiskSet) SetRetryPolicy(p RetryPolicy) {
	ds.retry.Store(&p)
}

// policy returns the active retry policy, normalized.
func (ds *DiskSet) policy() RetryPolicy {
	if p := ds.retry.Load(); p != nil {
		return p.Normalize()
	}
	return DefaultRetryPolicy()
}

// FailDisk marks one disk permanently failed: every subsequent access
// errors with FaultDiskFailed until ReviveDisk. The disk's breaker trips
// after the configured consecutive exhausted reads, after which reads
// fail fast without retry.
func (ds *DiskSet) FailDisk(disk int) { ds.disks[disk].failed.Store(true) }

// ReviveDisk clears a sticky disk failure and resets the disk's breaker.
func (ds *DiskSet) ReviveDisk(disk int) {
	q := &ds.disks[disk]
	q.failed.Store(false)
	q.brk.mu.Lock()
	q.brk.strikes, q.brk.open, q.brk.probing = 0, false, false
	q.brk.mu.Unlock()
}

// readAccess is one physical read access on disk `disk` under the fault
// plan: sticky failure and the circuit breaker are checked first (both
// fail without entering the queue), then the access holds the disk for
// its delay (plus any injected latency spike) and the read, then
// injected transient errors and page corruption (via the caller's
// corrupt callback, run inside the critical section so a concurrent
// reader can never absorb this read's fault) are applied. Counters
// account every physical attempt.
func (ds *DiskSet) readAccess(disk, pages int, read func() error, corrupt func()) error {
	q := &ds.disks[disk]
	if q.failed.Load() {
		return &FaultError{Disk: disk, Kind: FaultDiskFailed}
	}
	if open := ds.breakerCheck(disk); open {
		return &FaultError{Disk: disk, Kind: FaultBreakerOpen}
	}
	q.mu.Lock()
	if d := q.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	var spike time.Duration
	injectErr := false
	injectCorrupt := false
	if q.plan != nil {
		if p := q.plan.LatencySpikeRate; p > 0 && q.rng.Float64() < p {
			spike = q.plan.LatencySpike
		}
		if p := q.plan.ReadErrorRate; p > 0 && q.rng.Float64() < p {
			injectErr = true
		}
		if p := q.plan.CorruptRate; p > 0 && q.rng.Float64() < p {
			injectCorrupt = true
		}
	}
	if spike > 0 {
		time.Sleep(spike)
	}
	var err error
	if injectErr {
		// The disk was held for the access but returned garbage status:
		// model it as the read never filling the buffer.
		err = &FaultError{Disk: disk, Kind: FaultTransient, Err: errInjectedRead}
	} else {
		err = read()
		if err == nil && injectCorrupt && corrupt != nil {
			corrupt()
		}
	}
	q.mu.Unlock()
	q.ios.Add(1)
	q.pages.Add(int64(pages))
	if injectErr {
		q.injected.Add(1)
	}
	if err == nil && injectCorrupt && corrupt != nil {
		q.injected.Add(1)
	}
	return err
}

// corruptPages flips one byte per page — the smallest corruption a
// checksum must catch.
func corruptPages(buf []byte, pageSize int) {
	for off := 0; off < len(buf); off += pageSize {
		buf[off] ^= 0xA5
	}
}

// breakerCheck reports whether the disk's breaker currently rejects
// reads; an open breaker past its cooldown lets one probe through.
func (ds *DiskSet) breakerCheck(disk int) bool {
	b := &ds.disks[disk].brk
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return false
	}
	if !b.probing && time.Since(b.openedAt) >= ds.policy().BreakerCooldown {
		b.probing = true // half-open: let this one read probe the disk
		return false
	}
	return true
}

// breakerOK records a successful read: it closes a probing breaker and
// resets the strike count.
func (ds *DiskSet) breakerOK(disk int) {
	b := &ds.disks[disk].brk
	b.mu.Lock()
	b.strikes = 0
	if b.open {
		b.open, b.probing = false, false
	}
	b.mu.Unlock()
}

// breakerStrike records an exhausted read (every retry failed); the
// configured number of consecutive strikes opens the breaker.
func (ds *DiskSet) breakerStrike(disk int, pol RetryPolicy) {
	q := &ds.disks[disk]
	b := &q.brk
	b.mu.Lock()
	if b.probing {
		// The half-open probe failed: re-open for another cooldown.
		b.probing = false
		b.openedAt = time.Now()
		b.mu.Unlock()
		return
	}
	b.strikes++
	if !b.open && b.strikes >= pol.BreakerThreshold {
		b.open = true
		b.openedAt = time.Now()
		q.trips.Add(1)
	}
	b.mu.Unlock()
}
