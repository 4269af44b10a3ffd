package epoch

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/data"
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

// Append admits a batch of fact rows: each row is validated and routed
// to its fragment (a fragment outside Config.Own, or on disk a measure
// outside int32, rejects the whole batch before anything is admitted),
// the batch is sealed into one new delta segment of plain row columns per
// fragment it touches, each segment is journaled to the delta log
// (on-disk stores — through the segment's disk queue when declustered),
// and the batch is published atomically to subsequent queries with one
// copy of the delta set. A sealed segment is never extended, re-copied or
// re-journaled. Queries already admitted keep their pinned snapshot and
// do not see the new rows; queries admitted after Append returns
// aggregate base + delta with results byte-identical to a store built
// from the union of the rows. Appends serialise with each other and with
// compaction's swap phase, but never wait for a compaction's writing and
// never block query admission. The caller holds a Begin registration.
func (s *Store) Append(rows []Row) error {
	spec := s.cfg.Spec
	star := spec.Star()
	nd, n := len(star.Dims), len(rows)
	// Route every row: at[ri] indexes order, the fragments the batch
	// touches in first-arrival order, and start[k+1] counts fragment k's rows.
	at := make([]int32, n)
	var order []int64
	var start []int
	slot := make(map[int64]int32)
	buf := make([]int, nd)
	for ri := range rows {
		r := &rows[ri]
		if err := data.CheckLeaves(star, r.Leaves); err != nil {
			return fmt.Errorf("mdhf: append row %d: %w", ri, err)
		}
		for d, leaf := range r.Leaves {
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
		k, ok := slot[id]
		if !ok {
			k = int32(len(order))
			slot[id] = k
			order = append(order, id)
			start = append(start, 0)
		}
		at[ri] = k
		start[k]++
	}
	// Scatter the rows, in arrival order within each fragment, into one
	// slab per column type: fragment k's rows are [start[k], start[k+1])
	// of every column, and its segment's columns are exact windows of the
	// slabs. A batch's segments lie on the same side of every compaction
	// boundary, so they retire together and the slab with them.
	start = append(start, 0)
	for k, sum := 0, 0; k < len(start); k++ {
		start[k], sum = sum, sum+start[k]
	}
	leaves, measures := make([]int32, nd*n), make([]int64, 3*n)
	fill := slices.Clone(start)
	for ri := range rows {
		r, i := &rows[ri], fill[at[ri]]
		fill[at[ri]]++
		for d, leaf := range r.Leaves {
			leaves[d*n+i] = leaf
		}
		measures[i], measures[n+i], measures[2*n+i] = r.UnitsSold, r.DollarSales, r.Cost
	}
	cols := make([][]int32, nd*len(order))

	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	// A batch is journaled whole or not at all: should a later segment
	// fail, the journal and the seal sequence go back to where the batch
	// began, so a restart cannot replay half of a batch that was refused.
	seq0 := s.seq
	var mark storage.DeltaLogStats
	if s.dlog != nil {
		mark = s.dlog.Stats()
	}
	segs := make([]*frag.DeltaSegment, len(order))
	for k, id := range order {
		lo, hi := start[k], start[k+1]
		dims := cols[k*nd : (k+1)*nd : (k+1)*nd]
		for d := range dims {
			dims[d] = window(leaves, n, d, lo, hi)
		}
		s.seq++
		segs[k] = frag.SealColumns(id, s.seq, dims,
			window(measures, n, 0, lo, hi), window(measures, n, 1, lo, hi), window(measures, n, 2, lo, hi))
		if s.dlog != nil {
			if err := s.dlog.AppendSegment(segs[k], false); err != nil {
				s.seq = seq0
				return errors.Join(err, s.dlog.Rollback(mark))
			}
		}
	}
	set := s.Current().Deltas.WithBatch(segs)

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

// window returns rows [lo, hi) of column c of a slab of n-row columns,
// capped there, so that nothing can grow into the rows that follow.
func window[T any](slab []T, n, c, lo, hi int) []T { return slab[c*n+lo : c*n+hi : c*n+hi] }

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
// the boundary — the highest sealed sequence; sealed segments are final,
// so the boundary is all there is to freeze. Phase 2 (no locks): write the
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
	s.appendMu.Unlock()
	defer s.Unpin(snap.B)

	// Phase 2: write the next epoch, lock-free.
	nb, err := s.buildBackend(nil, snap, snap.Epoch+1)
	if err != nil {
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
