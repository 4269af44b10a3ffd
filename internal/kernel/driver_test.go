package kernel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/schema"
)

// fakeCounts is the fake backend's work counters.
type fakeCounts struct {
	Frags, Rows int64
}

func (c fakeCounts) Plus(o fakeCounts) fakeCounts {
	return fakeCounts{c.Frags + o.Frags, c.Rows + o.Rows}
}

// fakeRow is one fact row: its leaf members and measures.
type fakeRow struct {
	keys    []uint16
	u, d, c int64
}

// fakeScratch is the fake backend's worker scratch: inUse is set while a
// fold holds it, so two tasks on one scratch show.
type fakeScratch struct {
	SharedTask[fakeCounts]
	inUse atomic.Bool
}

// fakeBackend is the substitution the one-function contract exists for:
// fragment id → rows, matched row by row and folded with the column
// kernel. fail makes a fragment's fold fail, panicAt makes it panic. The
// scratch list counts what it builds and the folds count the times they
// found their scratch in use.
type fakeBackend struct {
	star    *schema.Star
	spec    *frag.Spec
	rows    map[int64][]fakeRow
	fail    map[int64]error
	panicAt map[int64]bool

	scratch        *exec.Scratch[*fakeScratch]
	built, clashes atomic.Int64
}

func (b *fakeBackend) dispatch(s *exec.Scheduler) Dispatch[*fakeScratch] {
	return Dispatch[*fakeScratch]{Star: b.star, Spec: b.spec, Sched: s, Scratch: b.scratch}
}

func (b *fakeBackend) match(q frag.Query, r fakeRow) bool {
	for _, p := range q.Preds {
		d := &b.star.Dims[p.Dim]
		if d.Ancestor(d.Leaf(), int(r.keys[p.Dim]), p.Level) != p.Member {
			return false
		}
	}
	return true
}

// fold scans fragment id for q into the slot; it counts every row it
// looks at.
func (b *fakeBackend) fold(sc *fakeScratch, id int64, q frag.Query, slot *Slot, c *fakeCounts) error {
	if !sc.inUse.CompareAndSwap(false, true) {
		b.clashes.Add(1)
	}
	defer sc.inUse.Store(false)
	if b.panicAt[id] {
		panic("poisoned fragment")
	}
	if err := b.fail[id]; err != nil {
		return err
	}
	c.Frags = 1
	if rows := b.rows[id]; len(rows) > 0 {
		c.Rows += int64(len(rows))
		b.foldRows(q, rows, slot)
	}
	return nil
}

// foldRows folds the rows q selects into the slot with the column
// kernel, over a column view of them and a mask of the matches.
func (b *fakeBackend) foldRows(q frag.Query, rows []fakeRow, slot *Slot) {
	cols := Columns{Dims: make([][]int32, len(b.star.Dims)),
		Units: make([]int64, len(rows)), Dollars: make([]int64, len(rows)), Costs: make([]int64, len(rows))}
	for d := range cols.Dims {
		cols.Dims[d] = make([]int32, len(rows))
	}
	sel := bitmap.New(len(rows))
	for i, r := range rows {
		for d := range cols.Dims {
			cols.Dims[d][i] = int32(r.keys[d])
		}
		cols.Units[i], cols.Dollars[i], cols.Costs[i] = r.u, r.d, r.c
		if b.match(q, r) {
			sel.Set(i)
		}
	}
	Fold(slot, cols, 0, len(rows), sel, 0)
}

// lone runs q as a batch of one.
func (b *fakeBackend) lone(ctx context.Context, s *exec.Scheduler, q frag.Query, deltas Deltas, own func(int64) bool) (Out[fakeCounts], error) {
	return Lone(b.shared(ctx, s, []frag.Query{q}, deltas, own))
}

func (b *fakeBackend) shared(ctx context.Context, s *exec.Scheduler, qs []frag.Query, deltas Deltas, own func(int64) bool) (Outs[fakeCounts], error) {
	return Shared(ctx, b.dispatch(s), qs, deltas, own, func(f *fakeFold, _ []BatchQuery) error {
		f.b = b
		return nil
	})
}

// fakeFold is the fake backend's fold bound to one call.
type fakeFold struct{ b *fakeBackend }

func (f *fakeFold) Fold(sc *fakeScratch, id int64, batch []BatchQuery, ms []Member[fakeCounts], slots []Slot) error {
	for k := range ms {
		if err := f.b.fold(sc, id, frag.Query{Preds: batch[ms[k].Query].Preds}, &slots[k], &ms[k].St); err != nil {
			return err
		}
		if len(ms) >= 2 {
			ms[k].Shared.FragmentsShared = 1
		}
	}
	return nil
}

// fakeWorld is the fake backend over the first two thirds of a generated
// table, the last third as delta segments, and every row by fragment for
// the brute-force reference.
type fakeWorld struct {
	be     *fakeBackend
	deltas Deltas
	all    map[int64][]fakeRow
}

func newFakeWorld(t *testing.T) *fakeWorld {
	t.Helper()
	star := schema.Tiny()
	spec := frag.MustParse(star, "time::month, product::group")
	tab := data.MustGenerate(star, 42)
	ix, err := frag.NewDeltaIndex(spec, frag.APB1Indexes(star))
	if err != nil {
		t.Fatal(err)
	}
	w := &fakeWorld{be: &fakeBackend{star: star, spec: spec, rows: map[int64][]fakeRow{}}, all: map[int64][]fakeRow{}}
	w.be.scratch = exec.NewScratch(func() *fakeScratch {
		w.be.built.Add(1)
		return &fakeScratch{}
	})
	builders := map[int64]*frag.SegmentBuilder{}
	buf := make([]int, len(tab.Dims))
	leaves := make([]int32, len(tab.Dims))
	for i := 0; i < tab.N(); i++ {
		id := spec.ID(spec.CoordOf(tab.LeafMembers(i, buf)))
		r := fakeRow{keys: make([]uint16, len(tab.Dims)), u: tab.UnitsSold[i], d: tab.DollarSales[i], c: tab.Cost[i]}
		for d := range tab.Dims {
			r.keys[d], leaves[d] = uint16(tab.Dims[d][i]), tab.Dims[d][i]
		}
		w.all[id] = append(w.all[id], r)
		if i < tab.N()*2/3 {
			w.be.rows[id] = append(w.be.rows[id], r)
			continue
		}
		if builders[id] == nil {
			builders[id] = ix.NewSegment(id)
		}
		builders[id].Add(leaves, r.u, r.d, r.c)
	}
	var set *frag.DeltaSet
	seq := uint64(0)
	for id := int64(0); id < spec.NumFragments(); id++ {
		if sb := builders[id]; sb != nil {
			seq++
			set = set.With(sb.Seal(seq))
		}
	}
	w.deltas = Deltas{Ix: ix, Set: set}
	return w
}

// want is the brute-force fold: every row of every owned fragment —
// base only, or base and deltas — bucketed per row with a spec-free
// grouper.
func (w *fakeWorld) want(t *testing.T, q frag.Query, withDeltas bool, own func(int64) bool) Result {
	t.Helper()
	gr, err := NewGrouper(w.be.star, nil, q.GroupBy)
	if err != nil {
		t.Fatal(err)
	}
	var slot Slot
	var g Grouped
	if gr != nil {
		slot.PerRow, slot.Groups = gr.PerRow(), &g
	}
	src := w.be.rows
	if withDeltas {
		src = w.all
	}
	for id, rows := range src {
		if own != nil && !own(id) {
			continue
		}
		w.be.foldRows(q, rows, &slot)
	}
	return gr.Result(FragPartial{Agg: slot.Agg, Groups: g.Run()})
}

var driverQueries = []string{
	"time::month=1, product::group=1",
	"time::month=2, product::code=5",
	"customer::store=2",
	"",
	"time::month=1 group by product::group", // aligned
	"customer::retailer=1 group by time::month, product::class", // per row
	"group by time::quarter, customer::store",
}

func parseDriverQueries(t *testing.T, star *schema.Star) []frag.Query {
	t.Helper()
	qs := make([]frag.Query, len(driverQueries))
	for i, text := range driverQueries {
		var err error
		if qs[i], err = frag.ParseQuery(star, text); err != nil {
			t.Fatal(err)
		}
	}
	return qs
}

// TestDriversEqualBruteForce: every member of a Shared batch equals the
// brute-force fold — ungrouped, fragment-aligned and per-row GROUP BY,
// with and without deltas, over all fragments and over an owned subset —
// and its outcome equals the same query's batch of one field by field,
// stats included, at K = 1, 2 and 16.
func TestDriversEqualBruteForce(t *testing.T) {
	w := newFakeWorld(t)
	qs := parseDriverQueries(t, w.be.star)
	invalid := frag.Query{Preds: []frag.Pred{{Dim: 99}}}
	ctx := context.Background()
	for _, workers := range []int{1, 3} {
		sched := exec.NewScheduler(workers)
		defer sched.Close()
		for dname, deltas := range map[string]Deltas{"base": {}, "deltas": w.deltas} {
			for oname, own := range map[string]func(int64) bool{"all": nil, "own": func(id int64) bool { return id%3 != 1 }} {
				lones := make([]Out[fakeCounts], len(qs))
				for i, q := range qs {
					name := fmt.Sprintf("workers=%d/%s/%s/%q", workers, dname, oname, driverQueries[i])
					out, err := w.be.lone(ctx, sched, q, deltas, own)
					if err != nil || out.Err != nil {
						t.Fatalf("%s: %v / %v", name, err, out.Err)
					}
					if (out.Gr != nil) != (len(q.GroupBy) > 0) || out.Gr == nil && out.Part.Groups != nil {
						t.Errorf("%s: grouper %v, groups %v", name, out.Gr, out.Part.Groups)
					}
					if out.Shared != (SharedScanStats{Batched: 1}) {
						t.Errorf("%s: batch of one shared stats %+v", name, out.Shared)
					}
					lones[i] = out
				}
				for _, k := range []int{1, 2, 16} {
					name := fmt.Sprintf("workers=%d/%s/%s/K=%d", workers, dname, oname, k)
					batch := make([]frag.Query, k)
					for i := range batch {
						batch[i] = qs[i%len(qs)]
					}
					if k >= 2 {
						batch[1] = invalid
					}
					outs, err := w.be.shared(ctx, sched, batch, deltas, own)
					if err != nil || outs.Len() != k {
						t.Fatalf("%s: %d outcomes, %v", name, outs.Len(), err)
					}
					for i := 0; i < k; i++ {
						got := *outs.At(i)
						if k >= 2 && i == 1 {
							// The invalid member's error is its own; its
							// batch-mates are served.
							_, wantErr := w.be.lone(ctx, sched, invalid, deltas, own)
							if got.Err == nil || wantErr == nil || got.Err.Error() != wantErr.Error() || got.Gr != nil || got.Part.Groups != nil {
								t.Errorf("%s slot 1: %+v, alone error %v", name, got, wantErr)
							}
							continue
						}
						if res, want := got.Gr.Result(got.Part), w.want(t, batch[i], dname == "deltas", own); !reflect.DeepEqual(res, want) {
							t.Errorf("%s slot %d: %+v, brute force %+v", name, i, res, want)
						}
						want := lones[i%len(qs)]
						if got.Shared.Batched != k || (k == 1 && got.Shared != SharedScanStats{Batched: 1}) {
							t.Errorf("%s slot %d: shared stats %+v", name, i, got.Shared)
						}
						got.Shared, want.Shared = SharedScanStats{}, SharedScanStats{}
						if got.St != want.St || got.Err != nil || !reflect.DeepEqual(got.Part, want.Part) ||
							!reflect.DeepEqual(got.Gr.Result(got.Part), want.Gr.Result(want.Part)) {
							t.Errorf("%s slot %d: shared %+v, alone %+v", name, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDriverStats: the driver sums the backend's counters over exactly
// the owned relevant fragments and credits the delta rows it folds
// itself — also for a fragment that has delta segments and no base
// rows.
func TestDriverStats(t *testing.T) {
	w := newFakeWorld(t)
	sched := exec.NewScheduler(2)
	defer sched.Close()
	ctx := context.Background()
	q, err := frag.ParseQuery(w.be.star, "time::quarter=1 group by product::class")
	if err != nil {
		t.Fatal(err)
	}
	// Empty one relevant fragment's base rows: it keeps its deltas.
	var emptied int64 = -1
	for _, id := range w.be.spec.FragmentIDs(q) {
		if w.deltas.Has(id) && len(w.be.rows[id]) > 0 {
			emptied = id
			break
		}
	}
	if emptied < 0 {
		t.Fatal("no relevant fragment with base rows and deltas")
	}
	w.all[emptied] = w.all[emptied][len(w.be.rows[emptied]):]
	delete(w.be.rows, emptied)

	own := func(id int64) bool { return id%2 == 0 || id == emptied }
	var frags, rows, deltaRows int64
	for _, id := range w.be.spec.FragmentIDs(q) {
		if own(id) {
			frags++
			rows += int64(len(w.be.rows[id]))
			for _, r := range w.all[id][len(w.be.rows[id]):] {
				if w.be.match(q, r) {
					deltaRows++
				}
			}
		}
	}
	want := fakeCounts{Frags: frags, Rows: rows}
	if deltaRows == 0 {
		t.Fatal("the query selects no delta row")
	}
	out, err := w.be.lone(ctx, sched, q, w.deltas, own)
	if err != nil {
		t.Fatal(err)
	}
	if out.St != want || out.DeltaRows != deltaRows {
		t.Errorf("lone counts %+v and %d delta rows, want %+v and %d", out.St, out.DeltaRows, want, deltaRows)
	}
	if got, ref := out.Gr.Result(out.Part), w.want(t, q, true, own); !reflect.DeepEqual(got, ref) {
		t.Errorf("lone %+v, brute force %+v", got, ref)
	}
	outs, err := w.be.shared(ctx, sched, []frag.Query{q, q}, w.deltas, own)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < outs.Len(); i++ {
		o := outs.At(i)
		if o.St != want || o.DeltaRows != deltaRows || o.Shared != (SharedScanStats{Batched: 2, FragmentsShared: int(frags)}) {
			t.Errorf("slot %d: counts %+v, %d delta rows, shared %+v, want %+v and %d over %d shared fragments", i, o.St, o.DeltaRows, o.Shared, want, deltaRows, frags)
		}
		if !reflect.DeepEqual(o.Part, out.Part) {
			t.Errorf("slot %d: partial %+v, lone %+v", i, o.Part, out.Part)
		}
	}
}

// TestDriverFailures: a failing fragment fails the run with the error of
// the lowest failing task and withholds every partial; a bind error and
// a nil scheduler fail it before any task runs; an invalid lone query
// is both returned and recorded as the query's own.
func TestDriverFailures(t *testing.T) {
	w := newFakeWorld(t)
	sched := exec.NewScheduler(3)
	defer sched.Close()
	ctx := context.Background()
	all := frag.Query{}
	ids := w.be.spec.FragmentIDs(all)
	low, high := errors.New("low fragment failed"), errors.New("high fragment failed")
	w.be.fail = map[int64]error{ids[2]: low, ids[len(ids)-1]: high}
	for i := 0; i < 20; i++ {
		out, err := w.be.lone(ctx, sched, all, w.deltas, nil)
		if err != low || !reflect.DeepEqual(out, Out[fakeCounts]{}) {
			t.Fatalf("lone: %+v, %v; want nothing and the lowest task's error", out, err)
		}
		outs, err := w.be.shared(ctx, sched, []frag.Query{all, all}, w.deltas, nil)
		if err != low || !reflect.DeepEqual(outs, Outs[fakeCounts]{}) {
			t.Fatalf("shared: %+v, %v; want nothing and the lowest task's error", outs, err)
		}
	}
	// The failing fragments are not relevant to an owner of the others.
	spared := func(id int64) bool { return w.be.fail[id] == nil }
	if out, err := w.be.lone(ctx, sched, all, w.deltas, spared); err != nil || !reflect.DeepEqual(out.Gr.Result(out.Part), w.want(t, all, true, spared)) {
		t.Errorf("lone over the healthy fragments: %+v, %v", out, err)
	}

	bindErr := errors.New("no plan")
	if _, err := Shared(ctx, w.be.dispatch(sched), []frag.Query{all}, Deltas{}, nil, func(*fakeFold, []BatchQuery) error { return bindErr }); err != bindErr {
		t.Errorf("shared bind error: %v", err)
	}
	if _, err := w.be.lone(ctx, nil, all, Deltas{}, nil); err == nil {
		t.Error("lone accepted a nil scheduler")
	}
	if _, err := w.be.shared(ctx, nil, []frag.Query{all}, Deltas{}, nil); err == nil {
		t.Error("shared accepted a nil scheduler")
	}
	invalid := frag.Query{Preds: []frag.Pred{{Dim: 99}}}
	if out, err := w.be.lone(ctx, sched, invalid, Deltas{}, nil); err == nil || out.Err != err {
		t.Errorf("invalid lone query: Out.Err %v, error %v", out.Err, err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if out, err := w.be.lone(cancelled, sched, all, Deltas{}, spared); !errors.Is(err, context.Canceled) || out.Err != nil {
		t.Errorf("cancelled lone: Out.Err %v, error %v", out.Err, err)
	}
}

// TestScratchNeverInTwoTasks: 16 concurrent lone and shared calls on 4
// workers borrow from one scratch list, call after call. No fold ever
// finds its scratch held by another task, every result equals the serial
// one, and a failing and a panicking call in the mix return nothing and
// disturb no one.
func TestScratchNeverInTwoTasks(t *testing.T) {
	w := newFakeWorld(t)
	qs := parseDriverQueries(t, w.be.star)
	sched := exec.NewScheduler(4)
	defer sched.Close()
	ctx := context.Background()
	ids := w.be.spec.FragmentIDs(frag.Query{})
	bad := ids[len(ids)/2]
	spared := func(id int64) bool { return id != bad }
	want := make([]Result, len(qs))
	for i, q := range qs {
		want[i] = w.want(t, q, true, spared)
	}
	w.be.fail = map[int64]error{bad: errors.New("bad fragment")}
	// The same rows and scratch list, the bad fragment panicking.
	poisoned := &fakeBackend{star: w.be.star, spec: w.be.spec, rows: w.be.rows, scratch: w.be.scratch, panicAt: map[int64]bool{bad: true}}

	const callers, rounds = 16, 30
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(qs)
				switch {
				case c == 0: // every fragment, the bad one included
					if out, err := w.be.lone(ctx, sched, frag.Query{}, w.deltas, nil); err == nil || !reflect.DeepEqual(out, Out[fakeCounts]{}) {
						t.Errorf("failing call: %+v, %v", out, err)
					}
				case c == 1:
					if out, err := poisoned.lone(ctx, sched, frag.Query{}, w.deltas, nil); err == nil || !reflect.DeepEqual(out, Out[fakeCounts]{}) {
						t.Errorf("panicking call: %+v, %v", out, err)
					}
				case c%2 == 0:
					out, err := w.be.lone(ctx, sched, qs[i], w.deltas, spared)
					if err != nil || !reflect.DeepEqual(out.Gr.Result(out.Part), want[i]) {
						t.Errorf("caller %d round %d: lone %+v, %v; want %+v", c, r, out, err, want[i])
					}
				default:
					j := (i + 1) % len(qs)
					outs, err := w.be.shared(ctx, sched, []frag.Query{qs[i], qs[j]}, w.deltas, spared)
					if err != nil {
						t.Errorf("caller %d round %d: shared %v", c, r, err)
					} else if o0, o1 := outs.At(0), outs.At(1); !reflect.DeepEqual(o0.Gr.Result(o0.Part), want[i]) || !reflect.DeepEqual(o1.Gr.Result(o1.Part), want[j]) {
						t.Errorf("caller %d round %d: shared %+v; want %+v and %+v", c, r, outs, want[i], want[j])
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if n := w.be.clashes.Load() + poisoned.clashes.Load(); n != 0 || w.be.built.Load() == 0 {
		t.Errorf("%d folds found their scratch in another task's hands (%d scratches built)", n, w.be.built.Load())
	}
}

// TestLoneBatchListsNoTasks: a batch of one takes its tasks from its
// region and lists none, so a warm one over every fragment of a
// 192-fragment spec allocates within 64 B of a warm one over two. (One
// over a single fragment is a one-task call, which runs on its caller
// and skips the pool's job, so it is logged but not compared.) When a
// batch of one listed its region, 8 B a fragment, it took 2,561 B over
// all and 964 B over two (amd64, go1.24).
func TestLoneBatchListsNoTasks(t *testing.T) {
	star := schema.Tiny()
	spec := frag.MustParse(star, "time::month, product::code, customer::store")
	be := &fakeBackend{star: star, spec: spec, scratch: exec.NewScratch(func() *fakeScratch { return &fakeScratch{} })}
	sched := exec.NewScheduler(2)
	defer sched.Close()
	bytes := func(text string, frags int64) uint64 {
		q, err := frag.ParseQuery(star, text)
		if err != nil {
			t.Fatal(err)
		}
		if n := spec.Relevant(q).Count(); n != frags {
			t.Fatalf("%q: %d fragments, want %d", text, n, frags)
		}
		run := func() {
			if _, err := be.lone(context.Background(), sched, q, Deltas{}, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			run()
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	one := bytes("time::month=1, product::code=3, customer::store=2", 1)
	two := bytes("time::month=1, product::class=1, customer::store=2", 2)
	all := bytes("", spec.NumFragments())
	t.Logf("batch of one: %d B over one fragment, %d B over two, %d B over all %d", one, two, all, spec.NumFragments())
	if all > two+64 {
		t.Errorf("a batch of one over all %d fragments allocated %d B, over two %d B: more than 64 B apart", spec.NumFragments(), all, two)
	}
}
