package storage

import (
	"errors"
	"slices"

	"repro/internal/alloc"
	"repro/internal/bitmap"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
)

// BackendConfig selects how BuildBackend assembles an on-disk backend.
type BackendConfig struct {
	// Compress stores the bitmap fragments WAH-compressed (a storage
	// format: the executor decodes either into the same bitsets).
	Compress bool
	// Placement declusters the store and bitmap file over a fresh DiskSet
	// of Placement.Disks disks (a fresh one-disk set when Disks is 0).
	Placement alloc.Placement
	// PrefetchFact sets the executor's fact read granule in pages
	// (values below 1 keep the executor default).
	PrefetchFact int
	// Sched is the scheduler the executor dispatches every execution
	// through (required).
	Sched *exec.Scheduler
	// Pool, when non-nil, routes the store's granule reads and the bitmap
	// file's unit reads through a shared buffer pool, keyed under
	// PoolEpoch — the backend's serving epoch, so a compaction's epoch
	// swap invalidates the old backend's entries for free.
	Pool      *BufPool
	PoolEpoch int64
}

// Backend bundles one complete on-disk execution backend: the paged fact
// store, its bitmap file, the executor over both, and the disk set and
// placement both read through (one disk unless declustered). It is the
// unit the epoch-versioned warehouse builds, serves from, and retires as
// a whole — compaction writes the next Backend into a fresh directory
// and swaps it in while the old one stays readable for queries that
// pinned it.
type Backend struct {
	Store     *Store
	Bitmaps   *BitmapFile
	Exec      *Executor
	Disks     *DiskSet
	Placement alloc.Placement
	// scratch is what the backend was built through; Compact writes the
	// next epoch through it and hands it on.
	scratch *buildScratch
}

// buildScratch is the buffer set a store's builds write through: the
// fact writer's run, the meta file's bytes, and the bitmap blocks' pages,
// key columns, payloads, sizes and checksums, in which every rebuilt
// block decodes its keys and builds and encodes one bitmap at a time.
// BuildBackend makes it and Compact hands it to the backend it writes,
// so it lives as long as the store, not the epoch: every buffer grows
// geometrically (grow), and a hot fragment that grew by a batch is
// rebuilt in the buffers of the last compaction. Nothing locks it: a
// store runs one compaction at a time (epoch.Store.compactMu), and that
// lock is what keeps two writers off the scratch.
type buildScratch struct {
	run, meta, block []byte
	keys             [][]int32
	dims             [][]uint16 // a fact page's key columns (Store.pageCols)
	payloads         [][]byte
	sizes            []int
	sums             []uint32
	bits             bitmap.Bitset
	wah              bitmap.Compressed
}

// grow returns buf with length n and unspecified contents, reallocated —
// geometrically, as append grows — only when its capacity is short.
func grow[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n)[:n] }

// BuildBackend writes the fragmented fact table and its surviving bitmap
// fragments into dir and assembles the executor over them, optionally
// declustered. On error no files stay open: every component built before
// the failure is closed before returning (the directory itself is left to
// the caller, which owns its lifecycle).
func BuildBackend(dir string, t *data.Table, spec *frag.Spec, icfg frag.IndexConfig, cfg BackendConfig) (*Backend, error) {
	sc := new(buildScratch)
	store, err := build(dir, t, spec, sc)
	if err != nil {
		return nil, err
	}
	bf, err := buildBitmaps(dir, store, icfg, cfg.Compress, sc)
	return assemble(store, bf, err, cfg, sc)
}

// Compact writes into dir the backend of the next epoch: this one's rows
// followed, fragment by fragment, by the delta set's segments in seal
// order — file for file what BuildBackend writes for the merged rows,
// at the cost of the fragments the set touches. A fragment without a
// segment is carried forward: its fact pages and its bitmap block are
// copied byte for byte with their checksums. A fragment with segments
// keeps its full pages the same way, gets its last page re-filled and
// the segments' rows appended, and has its bitmap block rebuilt. b must
// stay open (pinned) for the duration; it is only read, and only by
// plain reads of its files — never through its disk set. cfg assembles
// the new backend as in BuildBackend, except that the bitmap encoding is
// b's, the executor keeps its worker scratch in b's lists, which both
// epochs' tasks then share, and the files are written through b's build
// scratch, which the new backend inherits: one Compact at a time over b
// and its successors. On error nothing stays open and dir is left to
// the caller.
func (b *Backend) Compact(dir string, deltas *frag.DeltaSet, cfg BackendConfig) (*Backend, error) {
	old, sc := b.Store, b.scratch
	w, err := newFactWriter(dir, old.star, old.spec, sc)
	if err != nil {
		return nil, err
	}
	// The sorted union of the fragments held and the fragments touched is
	// the new allocation order.
	order := append(slices.Clone(old.order), deltas.FragmentIDs()...)
	slices.Sort(order)
	for _, id := range slices.Compact(order) {
		segs := deltas.Of(id)
		if _, held := old.dir[id]; held {
			w.carry(old, id, len(segs) > 0)
		}
		w.addSegments(segs)
		w.end(id)
	}
	store, err := w.finish()
	if err != nil {
		return nil, err
	}
	bf, err := writeBitmaps(dir, store, b.Bitmaps.ix, b.Bitmaps.compressed, b.Bitmaps, deltas, sc)
	nb, err := assemble(store, bf, err, cfg, sc)
	if err == nil {
		// Same schema, same bitmaps: the worker scratch carries over.
		nb.Exec.scratch = b.Exec.scratch
	}
	return nb, err
}

// addSegments appends the segments' rows to the open fragment.
func (w *factWriter) addSegments(segs []*frag.DeltaSegment) {
	for _, seg := range segs {
		cols := kernel.Columns{Dims: seg.Dims(), Units: seg.Units(), Dollars: seg.Dollars(), Costs: seg.Costs()}
		if w.err == nil {
			w.err = checkColumns(cols)
		}
		w.add(cols)
	}
}

// assemble turns a written store and bitmap file (or the error writing
// the latter) into a serving backend per cfg, closing both on failure;
// sc is the build scratch both were written through.
func assemble(store *Store, bf *BitmapFile, err error, cfg BackendConfig, sc *buildScratch) (*Backend, error) {
	if err != nil {
		store.Close()
		return nil, err
	}
	b := &Backend{Store: store, Bitmaps: bf, Placement: cfg.Placement, scratch: sc}
	b.Placement.Disks = max(b.Placement.Disks, 1)
	// A fresh set: the build's own reads are not served queries.
	if b.Disks, err = Decluster(store, bf, b.Placement); err != nil {
		b.Close()
		return nil, err
	}
	if cfg.Pool != nil {
		store.AttachPool(cfg.Pool, cfg.PoolEpoch)
		bf.AttachPool(cfg.Pool, cfg.PoolEpoch)
	}
	if b.Exec, err = NewExecutor(store, bf, cfg.Sched); err != nil {
		b.Close()
		return nil, err
	}
	if cfg.PrefetchFact > 0 {
		b.Exec.PrefetchFact = cfg.PrefetchFact
	}
	return b, nil
}

// Close releases the backend's files.
func (b *Backend) Close() error {
	var err error
	if b.Store != nil {
		err = errors.Join(err, b.Store.Close())
	}
	if b.Bitmaps != nil {
		err = errors.Join(err, b.Bitmaps.Close())
	}
	return err
}
