// Package epoch is the one serving core behind mdhf.Warehouse and
// cluster.Node: an epoch-versioned store of one fragmented fact table.
// It owns the reference-counted per-epoch backends and the snapshots
// queries pin at admission, the append path (validation, fragment
// routing, tail-coalescing seal, journal write, atomic publish), journal
// replay, the three-phase compaction, the optional background compactor
// and the shared-scan batch run. In the paper every processing node runs
// the same fragment-subquery machinery over the fragment subset the
// allocation gives it, so the store is parameterised only by an
// ownership predicate (Config.Own, nil = every fragment): a warehouse is
// the store over all fragments plus Explain, advisors and a result
// cache; a cluster node is the store over its shard plus the wire types.
package epoch

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/storage"
)

// Config describes what a Store serves and how.
type Config struct {
	// Spec and Indexes are the MDHF fragmentation and the bitmap index
	// configuration. A nil Spec gives a store that admits work (Begin,
	// Sched) but cannot Build — the advisory-only warehouse.
	Spec    *frag.Spec
	Indexes frag.IndexConfig
	// Own scopes the store to a fragment subset (nil = every fragment):
	// appends routed to a foreign fragment are rejected — the single-
	// writer-per-fragment invariant — and shared batches scan only owned
	// fragments.
	Own func(int64) bool

	// OnDisk selects the paged-file backend under Dir ("" = a temporary
	// root the store owns and removes); the in-memory engine otherwise.
	// On-disk stores journal every append under the root and replay the
	// journal at Build.
	OnDisk bool
	Dir    string
	// Compress stores the bitmaps WAH-compressed.
	Compress bool
	// Placement declusters the on-disk backend when Disks > 0.
	Placement alloc.Placement
	// PrefetchFact is the fact read granule in pages (0 = default).
	PrefetchFact int
	// IODelay is the initial simulated per-access disk latency.
	IODelay time.Duration
	// FaultPlan and Retry are installed on every epoch's disk set.
	FaultPlan *storage.FaultPlan
	Retry     *storage.RetryPolicy

	// Workers sizes the store's scheduler (<1 = one per CPU); AdmitLimit
	// bounds concurrently admitted executions (0 = unbounded).
	Workers    int
	AdmitLimit int
	// PoolBytes is the buffer pool budget of an on-disk store (0 = none).
	PoolBytes int64
	// SharedWindow enables shared-scan admission batching when > 0.
	SharedWindow time.Duration
	// AutoCompact triggers a background compaction once the live delta
	// rows reach it (0 = manual Compact only).
	AutoCompact int

	// Closed is the error Begin returns once the store is closed.
	Closed error

	// Published and Swapped (either may be nil) run under the state lock,
	// in the critical section that publishes the new serving state:
	// Published after an append installed a delta set, with the fragment
	// ids it touched; Swapped after a compaction installed the next epoch.
	// They are what lets a façade keep state keyed on (epoch, MaxSeq) —
	// the result cache — atomic with the snapshot.
	Published func(touched []int64, maxSeq uint64)
	Swapped   func(epoch int64, maxSeq uint64)
}

// Backend is one epoch's built execution backend: the in-memory engine
// or the on-disk store/bitmaps/executor bundle. It is also the base the
// next compaction folds deltas into: no copy of its rows is kept beside
// it. Backends are reference-counted: the serving snapshot holds one
// reference, every pinned execution (and a running compaction) holds
// another, and when a compaction swap retires a backend its files close
// and its epoch directory is removed as soon as the last pin is released
// — the old epoch stays readable until then.
type Backend struct {
	Engine *engine.Engine   // nil on disk
	Disk   *storage.Backend // nil in memory

	dir   string // the backend's own epoch directory ("" in-memory)
	epoch int64  // keys the buffer pool's entries

	refs    atomic.Int64
	retired atomic.Bool
}

// Snapshot is what a query pins at admission: one epoch's backend plus
// the immutable delta set sealed so far. Appends and compactions replace
// the store's current snapshot copy-on-write, so a pinned snapshot keeps
// serving unchanged results for the execution's whole lifetime.
type Snapshot struct {
	Epoch  int64
	B      *Backend
	Deltas *frag.DeltaSet
}

// Counters is the store's ingestion accounting (see Store.Counters).
type Counters struct {
	// Epoch is the current serving epoch (incremented by each compaction).
	Epoch int64
	// DeltaSegments and DeltaRows describe the live (not yet compacted)
	// delta set queries currently merge with the base backend.
	DeltaSegments int
	DeltaRows     int64
	// Appends and AppendedRows count Append calls and rows admitted;
	// Compactions and CompactedRows completed compactions and the delta
	// rows they folded into the base.
	Appends       int64
	AppendedRows  int64
	Compactions   int64
	CompactedRows int64
}

// Store is the epoch-versioned serving core. All methods are safe for
// concurrent use.
type Store struct {
	// Sched is the admission scheduler every execution runs on; Pool the
	// buffer pool (nil without Config.PoolBytes). Both are fixed by New.
	Sched *exec.Scheduler
	Pool  *storage.BufPool

	cfg    Config
	shared *exec.Batcher[sharedKey, frag.Query, Out]

	mu      sync.Mutex // the state lock: everything down to delay
	closed  bool
	wg      sync.WaitGroup // in-flight operations, waited on by Close
	cur     Snapshot
	bgErr   error         // background cleanup/compaction errors, returned by Close
	ctr     Counters      // the ingestion counts; Epoch and Delta* come from cur
	sharing SharedStats   // the shared-scan counts
	delay   time.Duration // re-applied to each new epoch (a fresh backend has none)

	appendMu   sync.Mutex // serialises Append and the compaction swap
	compacting bool       // guarded by appendMu
	seq        uint64     // guarded by appendMu: store-wide seal sequence

	compactMu sync.Mutex // serialises compaction runs

	ix        *frag.DeltaIndex
	dlog      *storage.DeltaLog
	compactor *storage.Compactor
	rootDir   string // holds the epoch dirs + the delta journal
	ownRoot   bool
}

// New starts a store's scheduler, buffer pool and admission batcher.
// Nothing is built yet: Build installs epoch 0. The caller must Close
// the store.
func New(cfg Config) *Store {
	s := &Store{
		Sched: exec.NewScheduler(cfg.Workers),
		cfg:   cfg,
		delay: cfg.IODelay,
	}
	if cfg.AdmitLimit > 0 {
		s.Sched.SetLimit(cfg.AdmitLimit)
	}
	if cfg.PoolBytes > 0 && cfg.OnDisk {
		s.Pool = storage.NewBufPool(cfg.PoolBytes)
	}
	if cfg.SharedWindow > 0 {
		s.shared = exec.NewBatcher[sharedKey, frag.Query, Out](cfg.SharedWindow)
	}
	return s
}

// RootDir returns the on-disk root ("" in memory or before Build).
func (s *Store) RootDir() string { return s.rootDir }

// Build installs epoch 0 over the given base rows, opens the delta
// journal (on-disk stores) and replays it, and starts the background
// compactor. It must be called once, before any Pin, Append or Compact.
// On failure everything built so far — including an owned temporary
// root — is cleaned up immediately, so a store whose build failed
// partway leaves nothing behind.
func (s *Store) Build(t *data.Table) error {
	ix, err := frag.NewDeltaIndex(s.cfg.Spec, s.cfg.Indexes)
	if err != nil {
		return err
	}
	b, err := s.buildBackend(t, Snapshot{}, 0)
	if err != nil {
		s.removeOwnedRoot()
		return err
	}
	var recovered *frag.DeltaSet
	if s.cfg.OnDisk {
		dlog, recs, err := storage.OpenDeltaLog(s.rootDir, s.cfg.Spec.Star())
		if err != nil {
			s.cleanup(b)
			s.removeOwnedRoot()
			return err
		}
		dlog.Attach(b.Disk.Disks, b.Disk.Placement)
		s.dlog = dlog
		recovered = s.replay(ix, recs)
	}
	s.ix = ix
	if s.cfg.AutoCompact > 0 {
		s.compactor = storage.NewCompactor(s.compactOnce)
	}
	s.mu.Lock()
	s.cur = Snapshot{B: b, Deltas: recovered}
	s.mu.Unlock()
	return nil
}

// replay is crash recovery: every acked Append wrote its segment to the
// journal before publishing, so replaying the journal's intact prefix
// through the delta index reconstructs exactly the delta set (and seal
// sequence) the store served before the crash. Rows a compaction already
// folded are not in the journal: epoch 0 is rebuilt from the supplied
// table, so they come back only if the caller's table holds them.
func (s *Store) replay(ix *frag.DeltaIndex, recs []storage.DeltaRecord) *frag.DeltaSet {
	var set *frag.DeltaSet
	for _, rec := range recs {
		sb := ix.NewSegment(rec.Frag)
		leaves := make([]int32, len(rec.Leaves))
		for i := 0; i < rec.Rows(); i++ {
			for d := range rec.Leaves {
				leaves[d] = rec.Leaves[d][i]
			}
			sb.Add(leaves, rec.Units[i], rec.Dollars[i], rec.Costs[i])
		}
		seg := sb.Seal(rec.Seq)
		if rec.Replace {
			set = set.WithTailReplaced(seg)
		} else {
			set = set.With(seg)
		}
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
	}
	return set
}

// Begin registers one in-flight operation; End must be called when it
// finishes. It fails with Config.Closed once the store is closed.
func (s *Store) Begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.cfg.Closed
	}
	s.wg.Add(1)
	return nil
}

// End releases one Begin registration.
func (s *Store) End() { s.wg.Done() }

// Lock takes the state lock. A façade that keys state on the serving
// snapshot holds it across PinLocked plus its own lookup, so the two are
// atomic with respect to Published and Swapped.
func (s *Store) Lock() { s.mu.Lock() }

// Unlock releases the state lock.
func (s *Store) Unlock() { s.mu.Unlock() }

// PinLocked acquires the current snapshot for one execution, taking a
// reference on its backend (state lock held). The caller must already
// hold a Begin registration and must Unpin the backend when done.
func (s *Store) PinLocked() (Snapshot, error) {
	if s.cur.B == nil {
		return Snapshot{}, fmt.Errorf("mdhf: backend not built")
	}
	s.cur.B.refs.Add(1)
	return s.cur, nil
}

// Pin is PinLocked under the (briefly held) state lock. Admission is
// never blocked by appends or compaction.
func (s *Store) Pin() (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.PinLocked()
}

// Unpin releases one reference; the last release of a retired backend
// cleans it up (closes files, removes its epoch directory).
func (s *Store) Unpin(b *Backend) {
	if b.refs.Add(-1) == 0 && b.retired.Load() {
		s.cleanup(b)
	}
}

// Current returns the serving snapshot without pinning it: for stats and
// estimates, never for execution (B is nil before Build).
func (s *Store) Current() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Counters snapshots the epoch, live delta set and ingestion counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.ctr
	c.Epoch, c.DeltaSegments, c.DeltaRows = s.cur.Epoch, s.cur.Deltas.Segments(), s.cur.Deltas.Rows()
	return c
}

// SetIODelay adjusts the simulated per-access disk latency of the
// current on-disk backend at run time (all disks of a declustered set).
// The delay survives compaction: each new epoch's backend inherits it.
func (s *Store) SetIODelay(d time.Duration) {
	s.mu.Lock()
	s.delay = d
	b := s.cur.B
	s.mu.Unlock()
	if b != nil && b.Disk != nil {
		applyIODelay(b.Disk, d)
	}
}

func applyIODelay(be *storage.Backend, d time.Duration) {
	if be.Disks != nil {
		be.Disks.SetIODelay(d)
		return
	}
	be.Store.SetIODelay(d)
	be.Bitmaps.SetIODelay(d)
}

// Close drains in-flight operations (queries, appends, compaction),
// stops the background compactor and the scheduler, closes the backend
// and journal files and removes the store's own temporary root. Begin
// fails afterwards. It returns any errors deferred from background
// cleanup (retired-epoch removal, failed background compactions)
// alongside its own.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	if s.compactor != nil {
		// A pending trigger still fires, but its run bails out in Begin.
		s.compactor.Close()
	}
	s.Sched.Close()
	s.mu.Lock()
	cur := s.cur
	s.cur = Snapshot{}
	s.mu.Unlock()
	if cur.B != nil {
		s.retire(cur.B) // refs are drained, so cleanup runs synchronously
	}
	var err error
	if s.dlog != nil {
		err = errors.Join(err, s.dlog.Close())
	}
	if s.ownRoot && s.rootDir != "" {
		err = errors.Join(err, os.RemoveAll(s.rootDir))
	}
	s.mu.Lock()
	err = errors.Join(err, s.bgErr)
	s.bgErr = nil
	s.mu.Unlock()
	return err
}

// retire marks the backend dead and drops the serving reference the
// snapshot held since the build.
func (s *Store) retire(b *Backend) {
	b.retired.Store(true)
	s.Unpin(b)
}

// cleanup closes a retired backend's files and removes its epoch
// directory, deferring any errors to Close.
func (s *Store) cleanup(b *Backend) {
	var err error
	if b.Disk != nil {
		if s.Pool != nil {
			// The retired epoch's last pinned query is done: its pooled
			// pages can never hit again (new lookups key the new epoch), so
			// drop them eagerly instead of letting them age out of the LRU.
			s.Pool.InvalidateEpoch(b.epoch)
		}
		err = errors.Join(b.Disk.Close(), os.RemoveAll(b.dir))
	}
	s.deferErr(err)
}

// deferErr keeps a background error for Close to return.
func (s *Store) deferErr(err error) {
	if err != nil {
		s.mu.Lock()
		s.bgErr = errors.Join(s.bgErr, err)
		s.mu.Unlock()
	}
}

// removeOwnedRoot deletes the store's own temporary root after a failed
// build and forgets it, so neither Close nor a later cleanup touches a
// half-built directory.
func (s *Store) removeOwnedRoot() {
	if s.ownRoot && s.rootDir != "" {
		os.RemoveAll(s.rootDir)
		s.rootDir, s.ownRoot = "", false
	}
}

// buildBackend builds one epoch's backend — from the table's rows, or,
// given a base snapshot (base.B non-nil, pinned by the caller), by
// folding base's deltas into base's backend fragment by fragment: the
// in-memory engine, or an on-disk Backend in its own epoch subdirectory
// of the root. On error no partial state leaks — files built before the
// failure are closed and the epoch directory removed (the root itself is
// handled by the caller).
func (s *Store) buildBackend(t *data.Table, base Snapshot, epoch int64) (*Backend, error) {
	b := &Backend{epoch: epoch}
	b.refs.Store(1) // the serving snapshot's reference
	if !s.cfg.OnDisk {
		var err error
		switch {
		case base.B != nil:
			b.Engine = base.B.Engine.Compact(base.Deltas)
		case s.cfg.Compress:
			b.Engine, err = engine.BuildCompressed(t, s.cfg.Spec, s.cfg.Indexes)
		default:
			b.Engine, err = engine.Build(t, s.cfg.Spec, s.cfg.Indexes)
		}
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	if s.rootDir == "" {
		dir := s.cfg.Dir
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", "mdhf-store-*")
			if err != nil {
				return nil, err
			}
			s.ownRoot = true
		}
		s.rootDir = dir
	}
	epochDir := filepath.Join(s.rootDir, fmt.Sprintf("epoch-%03d", epoch))
	cfg := storage.BackendConfig{
		Compress:     s.cfg.Compress,
		Placement:    s.cfg.Placement,
		PrefetchFact: s.cfg.PrefetchFact,
		Sched:        s.Sched,
		Pool:         s.Pool,
		PoolEpoch:    epoch,
	}
	var be *storage.Backend
	var err error
	if base.B != nil {
		be, err = base.B.Disk.Compact(epochDir, base.Deltas, cfg)
	} else {
		be, err = storage.BuildBackend(epochDir, t, s.cfg.Spec, s.cfg.Indexes, cfg)
	}
	if err != nil {
		os.RemoveAll(epochDir)
		return nil, err
	}
	// Install the fault plan and retry policy only after the backend is
	// fully built: build-time reads stay fault-free, and every epoch a
	// compaction writes inherits the same plan on its fresh disk set.
	if be.Disks != nil {
		if s.cfg.Retry != nil {
			be.Disks.SetRetryPolicy(*s.cfg.Retry)
		}
		if s.cfg.FaultPlan != nil {
			be.Disks.SetFaultPlan(s.cfg.FaultPlan)
		}
	}
	s.mu.Lock()
	d := s.delay
	s.mu.Unlock()
	if d > 0 {
		applyIODelay(be, d)
	}
	b.Disk, b.dir = be, epochDir
	return b, nil
}
