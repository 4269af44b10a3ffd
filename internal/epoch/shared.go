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

// SharedOut is one batched query's outcome, in both forms a façade may
// want: the flattened result and the mergeable partial, with the
// backend's own work counters (Engine in memory, IO on disk) exactly as
// solo execution would have counted them and the physical savings in
// Shared. Err is the query's own (validation) error.
type SharedOut struct {
	Res       kernel.Result
	Part      kernel.FragPartial
	Engine    kernel.Stats
	IO        storage.IOStats
	DeltaRows int64
	Shared    kernel.SharedScanStats
	Err       error
}

// SharedStats is the store-wide shared-scan accounting (zero without
// Config.SharedWindow); mdhf.SharedServingStats documents the fields.
type SharedStats struct {
	Batches, BatchedQueries, SoloWindows int64
	FragmentsShared, PhysReadsSaved      int64
	Fallbacks                            int64
}

// Sharing reports whether shared-scan admission batching is on.
func (s *Store) Sharing() bool { return s.shared != nil }

// ExecShared routes one execution through the shared-scan batcher: it
// donates at most one admission window waiting for batch-mates, then the
// group leader scans the queries' fragment union once and every member
// collects its own outcome. handled=false reports a batch-wide failure
// (an I/O error, or the leader's cancellation observed by a follower) —
// the caller falls back to solo execution on its own pinned snapshot, so
// batching can only ever be a performance effect. A handled error is the
// caller's own expired context (a solo retry would fail identically) or
// the query's validation error (deterministic, correctly attributed by
// the batch).
func (s *Store) ExecShared(ctx context.Context, snap Snapshot, q frag.Query) (out SharedOut, handled bool, err error) {
	key := sharedKey{epoch: snap.Epoch, seq: snap.Deltas.MaxSeq()}
	out, _, err = s.shared.Do(ctx, key, q, func(qs []frag.Query) ([]SharedOut, error) {
		return s.runSharedBatch(ctx, snap, qs)
	})
	if err != nil {
		if ctx.Err() != nil {
			return SharedOut{}, true, err
		}
		s.mu.Lock()
		s.sharing.Fallbacks++
		s.mu.Unlock()
		return SharedOut{}, false, err
	}
	return out, true, out.Err
}

// runSharedBatch executes one sealed batch against the snapshot every
// member pinned (the key guarantees they are interchangeable), over the
// fragments the store owns, and folds its effect into the store-wide
// counters.
func (s *Store) runSharedBatch(ctx context.Context, snap Snapshot, qs []frag.Query) ([]SharedOut, error) {
	deltas := s.Deltas(snap)
	outs := make([]SharedOut, len(qs))
	if snap.B.Engine != nil {
		rs, err := snap.B.Engine.ExecuteSharedDeltas(ctx, s.Sched, qs, deltas, s.cfg.Own)
		if err != nil {
			return nil, err
		}
		for i, r := range rs {
			outs[i] = SharedOut{Res: r.Res, Part: r.Part, Engine: r.St, DeltaRows: r.St.DeltaRows, Shared: r.Shared, Err: r.Err}
		}
	} else {
		rs, err := snap.B.Disk.Exec.ExecuteSharedDeltas(ctx, qs, deltas, s.cfg.Own)
		if err != nil {
			return nil, err
		}
		for i, r := range rs {
			outs[i] = SharedOut{Res: r.Res, Part: r.Part, IO: r.St, DeltaRows: r.St.DeltaRows, Shared: r.Shared, Err: r.Err}
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
