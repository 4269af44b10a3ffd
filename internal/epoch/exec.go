package epoch

import (
	"context"

	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/storage"
)

// sharedKey partitions shared-scan compatibility: only executions pinned
// to the same epoch and the same delta high-water mark may batch. The
// seal sequence is store-wide and strictly monotone, so an equal MaxSeq
// at an equal epoch means a byte-identical serving state — every member
// of a batch would have computed against exactly the same base backend
// and delta set alone.
type sharedKey struct {
	epoch int64
	seq   uint64
}

// Out is one execution's outcome, un-flattened: the partial a node ships
// as is, the grouper that flattens it into rows (Gr.Result), the backend's
// own work counters (Engine in memory, IO on disk) exactly as the query
// alone counts them and, for a query that rode a shared scan, the
// physical savings in Shared. Err is the query's own (validation) error.
type Out struct {
	Part      kernel.FragPartial
	Gr        *kernel.Grouper
	Engine    kernel.Stats
	IO        storage.IOStats
	DeltaRows int64
	Shared    kernel.SharedScanStats
	Err       error
}

func engineOut(o kernel.Out[kernel.Stats]) Out {
	return Out{Part: o.Part, Gr: o.Gr, Engine: o.St, DeltaRows: o.DeltaRows, Shared: o.Shared, Err: o.Err}
}

func diskOut(o kernel.Out[storage.IOStats]) Out {
	return Out{Part: o.Part, Gr: o.Gr, IO: o.St, DeltaRows: o.DeltaRows, Shared: o.Shared, Err: o.Err}
}

// SharedStats is the store-wide shared-scan accounting (zero without
// Config.SharedWindow), served as mdhf.SharedServingStats.
type SharedStats struct {
	// Batches counts multi-query batches executed (size >= 2);
	// BatchedQueries the executions they served. SoloWindows counts
	// admission windows that closed with a single query (no batch-mate
	// arrived).
	Batches        int64
	BatchedQueries int64
	SoloWindows    int64
	// FragmentsShared sums, over every batched query, the fragments whose
	// scan task also served at least one batch-mate.
	FragmentsShared int64
	// PhysReadsSaved counts the physical reads (bitmap and fact-granule
	// I/Os) batching eliminated: reads a query would have issued solo but
	// instead consumed from a batch-mate's.
	PhysReadsSaved int64
	// Fallbacks counts batch-wide failures whose members re-executed solo
	// (batching is only ever a performance effect).
	Fallbacks int64
}

// Exec runs one query against a pinned snapshot over the fragments the
// store owns. With sharing on it goes through the admission batcher: it
// donates at most one window waiting for batch-mates, then the group
// leader scans the queries' fragment union once and every member
// collects its own outcome — or its own error: its validation error
// (deterministic, correctly attributed by the batch) or its own expired
// context. A batch-wide failure (an I/O error, or the leader's
// cancellation observed by a follower) counts as a fallback and the
// query runs alone, as it does without sharing — a batch of one that
// reports no sharing — so batching is only ever a performance effect.
func (s *Store) Exec(ctx context.Context, snap Snapshot, q frag.Query) (Out, error) {
	if s.shared != nil {
		key := sharedKey{epoch: snap.Epoch, seq: snap.Deltas.MaxSeq()}
		out, _, err := s.shared.Do(ctx, key, q, func(qs []frag.Query) ([]Out, error) {
			return s.runSharedBatch(ctx, snap, qs)
		})
		if err == nil {
			return out, out.Err
		}
		if ctx.Err() != nil {
			return Out{}, err
		}
		s.mu.Lock()
		s.sharing.Fallbacks++
		s.mu.Unlock()
	}
	var outs [1]Out
	if err := s.scan(ctx, snap, []frag.Query{q}, outs[:]); err != nil {
		return Out{}, err
	}
	outs[0].Shared = kernel.SharedScanStats{}
	return outs[0], outs[0].Err
}

// scan runs the queries in one pass over the snapshot's backend, merging
// the snapshot's delta set (interpreted by the store's delta index), into
// outs — one per query.
func (s *Store) scan(ctx context.Context, snap Snapshot, qs []frag.Query, outs []Out) error {
	deltas := kernel.Deltas{Ix: s.ix, Set: snap.Deltas}
	if snap.B.Engine != nil {
		ko, err := snap.B.Engine.Shared(ctx, s.Sched, qs, deltas, s.cfg.Own)
		return fill(outs, ko, err, engineOut)
	}
	ko, err := snap.B.Disk.Exec.Shared(ctx, qs, deltas, s.cfg.Own)
	return fill(outs, ko, err, diskOut)
}

// fill converts a backend's outcomes into outs, unless the batch failed.
func fill[St any](outs []Out, ko kernel.Outs[St], err error, conv func(kernel.Out[St]) Out) error {
	if err != nil {
		return err
	}
	for i := range outs {
		outs[i] = conv(*ko.At(i))
	}
	return nil
}

// runSharedBatch executes one sealed batch against the snapshot every
// member pinned (the key guarantees they are interchangeable) and folds
// its effect into the store-wide counters: a window that sealed with one
// query is a batch of one and counts as a solo window.
func (s *Store) runSharedBatch(ctx context.Context, snap Snapshot, qs []frag.Query) ([]Out, error) {
	outs := make([]Out, len(qs))
	if err := s.scan(ctx, snap, qs, outs); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(qs) >= 2 {
		s.sharing.Batches++
		s.sharing.BatchedQueries += int64(len(qs))
	} else {
		s.sharing.SoloWindows++
	}
	for i := range outs {
		s.sharing.FragmentsShared += int64(outs[i].Shared.FragmentsShared)
		s.sharing.PhysReadsSaved += outs[i].Shared.PhysReadsSaved
	}
	return outs, nil
}

// SharedStats snapshots the store-wide shared-scan counters.
func (s *Store) SharedStats() SharedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sharing
}
