package storage

import (
	"errors"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/frag"
)

// BackendConfig selects how BuildBackend assembles an on-disk backend.
type BackendConfig struct {
	// Compress stores the bitmap fragments WAH-compressed and executes on
	// the compressed words.
	Compress bool
	// Placement declusters the store and bitmap file over a fresh DiskSet
	// when Placement.Disks > 0 (single implicit disk otherwise).
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
// store, its bitmap file, the executor over both, and (when declustered)
// the disk set and placement. It is the unit the epoch-versioned
// warehouse builds, serves from, and retires as a whole — compaction
// builds a fresh Backend in a fresh directory and swaps it in while the
// old one stays readable for queries that pinned it.
type Backend struct {
	Store     *Store
	Bitmaps   *BitmapFile
	Exec      *Executor
	Disks     *DiskSet
	Placement alloc.Placement
}

// BuildBackend writes the fragmented fact table and its surviving bitmap
// fragments into dir and assembles the executor over them, optionally
// declustered. On error no files stay open: every component built before
// the failure is closed before returning (the directory itself is left to
// the caller, which owns its lifecycle).
func BuildBackend(dir string, t *data.Table, spec *frag.Spec, icfg frag.IndexConfig, cfg BackendConfig) (*Backend, error) {
	store, err := Build(dir, t, spec)
	if err != nil {
		return nil, err
	}
	var bf *BitmapFile
	if cfg.Compress {
		bf, err = BuildCompressedBitmaps(dir, store, icfg)
	} else {
		bf, err = BuildBitmaps(dir, store, icfg)
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	b := &Backend{Store: store, Bitmaps: bf}
	if cfg.Placement.Disks > 0 {
		ds, err := Decluster(store, bf, cfg.Placement)
		if err != nil {
			store.Close()
			bf.Close()
			return nil, err
		}
		b.Disks, b.Placement = ds, cfg.Placement
	}
	if cfg.Pool != nil {
		store.AttachPool(cfg.Pool, cfg.PoolEpoch)
		bf.AttachPool(cfg.Pool, cfg.PoolEpoch)
	}
	b.Exec, err = NewExecutor(store, bf, cfg.Sched)
	if err != nil {
		store.Close()
		bf.Close()
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
