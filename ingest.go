package mdhf

import (
	"context"

	"repro/internal/epoch"
)

// FactRow is one incoming fact: the leaf member per dimension (in schema
// dimension order) plus the three APB-1 measures.
type FactRow = epoch.Row

// Append admits a batch of fact rows into the warehouse: each row is
// routed to its placement-mapped fragment, sealed into a fragment-
// aligned delta segment of plain row columns, journaled to the delta log
// (on-disk backends — through the segment's disk queue when
// declustered), and published atomically to subsequent queries.
// Queries already admitted keep their pinned snapshot and do not see the
// new rows; queries admitted after Append returns aggregate base + delta
// with results byte-identical to a warehouse built from the union of the
// rows. Appends serialise with each other and with compaction's swap
// phase, but never wait for a compaction's writing and never block query
// admission.
//
// When WithAutoCompaction is configured and the live delta rows reach
// the threshold, a background compaction is triggered (never awaited).
func (w *Warehouse) Append(ctx context.Context, rows []FactRow) error {
	if len(rows) == 0 {
		return nil
	}
	if err := w.admit(ctx); err != nil {
		return err
	}
	defer w.store.End()
	return w.store.Append(rows)
}

// admit registers one in-flight operation with the store — the caller
// must End it — and makes sure the backend is built.
func (w *Warehouse) admit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := w.store.Begin(); err != nil {
		return err
	}
	if err := w.ensureBackend(ctx); err != nil {
		w.store.End()
		return err
	}
	return nil
}

// Epoch returns the current serving epoch: 0 until the first compaction,
// incremented by each completed one.
func (w *Warehouse) Epoch() int64 { return w.store.Current().Epoch }

// Compact synchronously folds the sealed delta segments into the next
// epoch's backend: fragments with deltas are rewritten, the others
// carried forward as they are. It is a no-op when nothing was appended.
// The new epoch is written without holding the append or admission locks:
// queries keep being admitted (pinning the old epoch) and appends keep
// landing (segments sealed after the compaction boundary stay live
// across the swap); only the final snapshot swap takes the locks,
// briefly. The previous epoch's files are removed once its last pinned
// query finishes.
func (w *Warehouse) Compact(ctx context.Context) error {
	if err := w.admit(ctx); err != nil {
		return err
	}
	defer w.store.End()
	return w.store.Compact(ctx)
}
