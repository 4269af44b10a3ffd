package epoch

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/frag"
	"repro/internal/storage"
)

// Row is one incoming fact: the leaf member per dimension (in schema
// dimension order) plus the three APB-1 measures — what the cluster
// transports ship for an append.
type Row struct {
	Leaves      []int32
	UnitsSold   int64
	DollarSales int64
	Cost        int64
}

// coalesceRows bounds tail-segment coalescing: a fragment's most recent
// delta segment is extended in place (never rewritten — see
// frag.ExtendSegment) while it holds fewer rows than this, so steady
// trickle appends don't shatter a fragment into thousands of tiny
// segments. Larger tails seal and a fresh segment starts.
const coalesceRows = 4096

// Append admits a batch of fact rows: each row is validated and routed
// to its fragment (a fragment outside Config.Own, or on disk a measure
// outside int32, rejects the whole batch before anything is admitted),
// sealed into a fragment-aligned delta segment of plain row columns,
// journaled to the delta log (on-disk stores — through the segment's disk
// queue when declustered), and published atomically to subsequent
// queries with one copy of the delta set per batch. Queries
// already admitted keep their pinned snapshot and do not see the new
// rows; queries admitted after Append returns aggregate base + delta
// with results byte-identical to a store built from the union of the
// rows. Appends serialise with each other and with compaction's swap
// phase, but never wait for a compaction's writing and never block query
// admission. The caller holds a Begin registration.
func (s *Store) Append(rows []Row) error {
	spec := s.cfg.Spec
	star := spec.Star()
	// Partition the batch by fragment, preserving arrival order within
	// each fragment (the order delta rows are served and compacted in).
	byFrag := make(map[int64][]int)
	var order []int64
	buf := make([]int, len(star.Dims))
	for ri := range rows {
		r := &rows[ri]
		if len(r.Leaves) != len(star.Dims) {
			return fmt.Errorf("mdhf: append row %d has %d leaves for %d dimensions", ri, len(r.Leaves), len(star.Dims))
		}
		for d, leaf := range r.Leaves {
			if leaf < 0 || int(leaf) >= star.Dims[d].LeafCard() {
				return fmt.Errorf("mdhf: append row %d: %s leaf %d out of range [0,%d)", ri, star.Dims[d].Name, leaf, star.Dims[d].LeafCard())
			}
			buf[d] = int(leaf)
		}
		if s.cfg.OnDisk { // in memory the measures stay int64
			if err := storage.CheckMeasures(ri, r.UnitsSold, r.DollarSales, r.Cost); err != nil {
				return fmt.Errorf("mdhf: append: %w", err)
			}
		}
		id := spec.IDOf(buf)
		if s.cfg.Own != nil && !s.cfg.Own(id) {
			return fmt.Errorf("mdhf: append row %d: fragment %d is owned by another node (single-writer-per-fragment)", ri, id)
		}
		if _, ok := byFrag[id]; !ok {
			order = append(order, id)
		}
		byFrag[id] = append(byFrag[id], ri)
	}

	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	set := s.Current().Deltas
	// A batch is journaled whole or not at all: should a later segment
	// fail, the journal and the seal sequence go back to where the batch
	// began, so a restart cannot replay half of a batch that was refused.
	seq0 := s.seq
	var mark storage.DeltaLogStats
	if s.dlog != nil {
		mark = s.dlog.Stats()
	}
	segs := make([]*frag.DeltaSegment, len(order))
	replace := make([]bool, len(order))
	for i, id := range order {
		var sb *frag.SegmentBuilder
		// Coalesce into the fragment's small tail segment — except while a
		// compaction is in flight: segments at or below the compaction
		// boundary must stay frozen so the epoch swap can drop exactly them.
		if tail := set.Tail(id); tail != nil && !s.compacting && tail.Rows() < coalesceRows {
			sb = s.ix.ExtendSegment(tail)
			replace[i] = true
		} else {
			sb = s.ix.NewSegment(id)
		}
		sb.Grow(len(byFrag[id]))
		for _, ri := range byFrag[id] {
			r := &rows[ri]
			sb.Add(r.Leaves, r.UnitsSold, r.DollarSales, r.Cost)
		}
		s.seq++
		segs[i] = sb.Seal(s.seq)
		if s.dlog != nil {
			if err := s.dlog.AppendSegment(segs[i], replace[i]); err != nil {
				s.seq = seq0
				return errors.Join(err, s.dlog.Rollback(mark))
			}
		}
	}
	set = set.WithBatch(segs, replace)

	s.mu.Lock()
	s.cur.Deltas = set
	if s.cfg.Published != nil {
		s.cfg.Published(order, set.MaxSeq())
	}
	s.ctr.Appends++
	s.ctr.AppendedRows += int64(len(rows))
	s.mu.Unlock()
	if n := s.cfg.AutoCompact; n > 0 && set.Rows() >= int64(n) {
		s.compactor.Trigger() // never awaited
	}
	return nil
}

// compactOnce is the background compactor's run function: a Compact
// whose errors are deferred to Close.
func (s *Store) compactOnce() {
	if s.Begin() != nil {
		return // closing: nothing left to compact into
	}
	defer s.End()
	s.deferErr(s.Compact(context.Background()))
}

// Compact synchronously folds the sealed delta segments into the next
// epoch's backend; a no-op when nothing was appended. It is the
// three-phase epoch roll-over. Phase 1 (append lock, briefly): freeze
// the boundary — the highest sealed sequence — and flag the compaction
// so appends stop extending frozen tails. Phase 2 (no locks): write the
// next epoch's backend fragment by fragment — a fragment with delta rows
// at or below the boundary gets them appended behind its base rows, every
// other fragment is carried forward as it is (storage.Backend.Compact,
// engine.Engine.Compact) — while queries keep being admitted (pinning
// the old epoch) and appends keep landing. Phase 3 (append +
// state lock, briefly): swap the serving snapshot to the new backend
// with only the post-boundary segments, reset the delta journal to
// those, and retire the old backend (removed when its last pinned query
// finishes). The caller holds a Begin registration.
func (s *Store) Compact(ctx context.Context) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Phase 1: freeze the boundary.
	s.appendMu.Lock()
	s.mu.Lock()
	snap := s.cur
	if snap.Deltas.Rows() == 0 {
		s.mu.Unlock()
		s.appendMu.Unlock()
		return nil
	}
	snap.B.refs.Add(1) // keep the base backend readable while folding into it
	s.mu.Unlock()
	boundary := snap.Deltas.MaxSeq()
	s.compacting = true
	s.appendMu.Unlock()
	defer s.Unpin(snap.B)

	// Phase 2: write the next epoch, lock-free.
	nb, err := s.buildBackend(nil, snap, snap.Epoch+1)
	if err != nil {
		s.appendMu.Lock()
		s.compacting = false
		s.appendMu.Unlock()
		return err
	}

	// Phase 3: swap.
	s.appendMu.Lock()
	s.mu.Lock()
	old := s.cur.B
	live := s.cur.Deltas.After(boundary)
	s.cur = Snapshot{Epoch: snap.Epoch + 1, B: nb, Deltas: live}
	if s.cfg.Swapped != nil {
		s.cfg.Swapped(s.cur.Epoch, live.MaxSeq())
	}
	s.ctr.Compactions++
	s.ctr.CompactedRows += snap.Deltas.Rows()
	s.mu.Unlock()
	s.compacting = false
	var resetErr error
	if s.dlog != nil {
		var liveSegs []*frag.DeltaSegment
		live.ForEachSegment(func(seg *frag.DeltaSegment) { liveSegs = append(liveSegs, seg) })
		resetErr = s.dlog.Reset(liveSegs)
		s.dlog.Attach(nb.Disk.Disks, nb.Disk.Placement)
	}
	s.appendMu.Unlock()
	s.retire(old)
	return resetErr
}
