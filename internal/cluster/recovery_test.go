package cluster

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/data"
)

// headTable returns the first n rows of a table as a new table.
func headTable(t *data.Table, n int) *data.Table {
	head := &data.Table{Star: t.Star, Dims: make([][]int32, len(t.Dims))}
	for d := range t.Dims {
		head.Dims[d] = t.Dims[d][:n:n]
	}
	head.UnitsSold = t.UnitsSold[:n:n]
	head.DollarSales = t.DollarSales[:n:n]
	head.Cost = t.Cost[:n:n]
	return head
}

// tableRows returns rows [lo,hi) of a table as append rows.
func tableRows(t *data.Table, lo, hi int) []Row {
	rows := make([]Row, 0, hi-lo)
	for i := lo; i < hi; i++ {
		leaves := make([]int32, len(t.Dims))
		for d := range t.Dims {
			leaves[d] = t.Dims[d][i]
		}
		rows = append(rows, Row{Leaves: leaves, UnitsSold: t.UnitsSold[i], DollarSales: t.DollarSales[i], Cost: t.Cost[i]})
	}
	return rows
}

// partialOf strips a response down to the partial it carries: the fields
// the coordinator merges, which must not depend on whether a row arrived
// in the base table, in a live delta or through a journal replay.
func partialOf(r Response) Response {
	return Response{Agg: r.Agg, Grouped: r.Grouped, Groups: r.Groups}
}

// TestNodeJournalCrashRecovery abandons an on-disk node without Close
// after several acked Appends and rebuilds it over the same Dir and
// shard rows: the journal replay must reconstruct every acked row, so
// every Exec partial equals both the pre-crash node's and that of a node
// built from the union of the rows. A second round tears the journal's
// last record mid-write: replay must drop exactly that record and keep
// everything acked before it.
func TestNodeJournalCrashRecovery(t *testing.T) {
	ctx := context.Background()
	_, spec, icfg, tab, qs := clusterFixture(t)
	cl := alloc.Placement{Disks: 2, Scheme: alloc.RoundRobin}
	const index = 1
	shard := PartitionTable(spec, cl, tab)[index]
	half := shard.N() / 2
	base := headTable(shard, half)
	extra := tableRows(shard, half, shard.N())

	newNode := func(cfg NodeConfig, rows *data.Table) *Node {
		t.Helper()
		cfg.Spec, cfg.Indexes, cfg.Index, cfg.Cluster = spec, icfg, index, cl
		n, err := NewNode(cfg, rows)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	onDisk := func(dir string) NodeConfig {
		return NodeConfig{OnDisk: true, Dir: dir, Compress: true, Disks: 2, Staggered: true}
	}
	partials := func(n *Node) []Response {
		t.Helper()
		out := make([]Response, len(qs))
		for i, q := range qs {
			resp, err := n.Exec(ctx, Request{Preds: q.Preds, GroupBy: q.GroupBy})
			if err != nil {
				t.Fatalf("query %+v: %v", q, err)
			}
			out[i] = partialOf(resp)
		}
		return out
	}
	// unionOf is the oracle: an in-memory node whose base table already
	// holds the first k appended rows.
	unionOf := func(k int) []Response {
		return partials(newNode(NodeConfig{}, headTable(shard, half+k)))
	}
	check := func(name string, got, want []Response) {
		t.Helper()
		for i := range qs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s, query %+v: %+v != %+v", name, qs[i], got[i], want[i])
			}
		}
	}

	dir := t.TempDir()
	n1 := newNode(onDisk(dir), base)
	// Three batches over the same fragments, so the second and third
	// coalesce into the first's tail segments (replace-flagged records).
	per := (len(extra) + 2) / 3
	for lo := 0; lo < len(extra); lo += per {
		if err := n1.Append(ctx, extra[lo:min(lo+per, len(extra))]); err != nil {
			t.Fatal(err)
		}
	}
	frags := map[int64]bool{}
	buf := make([]int, len(tab.Star.Dims))
	for i := half; i < shard.N(); i++ {
		frags[spec.ID(spec.CoordOf(shard.LeafMembers(i, buf)))] = true
	}
	if st := n1.Stats(); st.DeltaSegments != len(frags) || st.DeltaRows != int64(len(extra)) {
		t.Fatalf("pre-crash delta set: %d segments / %d rows, want %d coalesced segments / %d rows",
			st.DeltaSegments, st.DeltaRows, len(frags), len(extra))
	}
	preCrash := partials(n1)
	// "Crash": n1 is not closed before the rebuild (only at test cleanup)
	// — only what the journal durably holds may survive.

	n2 := newNode(onDisk(dir), base)
	recovered := partials(n2)
	check("recovered vs pre-crash", recovered, preCrash)
	check("recovered vs union", recovered, unionOf(len(extra)))
	if st := n2.Stats(); st.DeltaRows != int64(len(extra)) {
		t.Fatalf("recovered delta rows = %d, want %d", st.DeltaRows, len(extra))
	}
	// Ingestion continues on the recovered journal.
	if err := n2.Append(ctx, extra[:1]); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}

	// Torn tail: everything but the last row is acked in one batch, the
	// last row in a second one that coalesces into a tail — one journal
	// record, cut short below.
	dir = t.TempDir()
	n3 := newNode(onDisk(dir), base)
	last := len(extra) - 1
	if err := n3.Append(ctx, extra[:last]); err != nil {
		t.Fatal(err)
	}
	if err := n3.Append(ctx, extra[last:]); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "delta.dat")
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(journal, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	n4 := newNode(onDisk(dir), base)
	check("torn tail vs union of intact records", partials(n4), unionOf(last))
	if st := n4.Stats(); st.DeltaRows != int64(last) {
		t.Fatalf("delta rows after torn-tail recovery = %d, want %d", st.DeltaRows, last)
	}
}
