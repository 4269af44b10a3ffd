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
// and delta set solo.
type sharedKey struct {
	epoch int64
	seq   uint64
}

// Out is one execution's outcome, un-flattened: the partial a node ships
// as is, the grouper that flattens it into rows (Gr.Result), the backend's
// own work counters (Engine in memory, IO on disk) exactly as solo
// execution counts them and, for a query that rode a shared scan, the
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
	return Out{Part: o.Part, Gr: o.Gr, Engine: o.St, DeltaRows: o.St.DeltaRows, Shared: o.Shared, Err: o.Err}
}

func diskOut(o kernel.Out[storage.IOStats]) Out {
	return Out{Part: o.Part, Gr: o.Gr, IO: o.St, DeltaRows: o.St.DeltaRows, Shared: o.Shared, Err: o.Err}
}

// SharedStats is the store-wide shared-scan accounting (zero without
// Config.SharedWindow); mdhf.SharedServingStats documents the fields.
type SharedStats struct {
	Batches, BatchedQueries, SoloWindows int64
	FragmentsShared, PhysReadsSaved      int64
	Fallbacks                            int64
}

// Exec runs one query against a pinned snapshot over the fragments the
// store owns. With sharing on it goes through the admission batcher: it
// donates at most one window waiting for batch-mates, then the group
// leader scans the queries' fragment union once and every member
// collects its own outcome — or its own error: its validation error
// (deterministic, correctly attributed by the batch) or its own expired
// context. A batch-wide failure (an I/O error, or the leader's
// cancellation observed by a follower) counts as a fallback and the
// query runs solo, as it does without sharing, so batching is only ever
// a performance effect.
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
	return s.solo(ctx, snap, q)
}

// solo runs the query alone on the snapshot's backend, merging the
// snapshot's delta set (interpreted by the store's delta index).
func (s *Store) solo(ctx context.Context, snap Snapshot, q frag.Query) (Out, error) {
	deltas := kernel.Deltas{Ix: s.ix, Set: snap.Deltas}
	if snap.B.Engine != nil {
		o, err := snap.B.Engine.Solo(ctx, s.Sched, q, deltas, s.cfg.Own)
		return engineOut(o), err
	}
	o, err := snap.B.Disk.Exec.Solo(ctx, q, deltas, s.cfg.Own)
	return diskOut(o), err
}

// runSharedBatch executes one sealed batch against the snapshot every
// member pinned (the key guarantees they are interchangeable) and folds
// its effect into the store-wide counters. A window that sealed with one
// query runs it solo: the mask kernel of a shared scan costs a lone
// query several times its solo run.
func (s *Store) runSharedBatch(ctx context.Context, snap Snapshot, qs []frag.Query) ([]Out, error) {
	outs := make([]Out, len(qs))
	deltas := kernel.Deltas{Ix: s.ix, Set: snap.Deltas}
	switch {
	case len(qs) == 1:
		out, err := s.solo(ctx, snap, qs[0])
		if err != nil && out.Err == nil {
			return nil, err // an execution failure, not the query's own error
		}
		if outs[0] = out; err == nil {
			outs[0].Shared.Batched = 1
		}
	case snap.B.Engine != nil:
		rs, err := snap.B.Engine.Shared(ctx, s.Sched, qs, deltas, s.cfg.Own)
		if err != nil {
			return nil, err
		}
		for i, r := range rs {
			outs[i] = engineOut(r)
		}
	default:
		rs, err := snap.B.Disk.Exec.Shared(ctx, qs, deltas, s.cfg.Own)
		if err != nil {
			return nil, err
		}
		for i, r := range rs {
			outs[i] = diskOut(r)
		}
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
