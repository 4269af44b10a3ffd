package kernel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/schema"
)

// fakeCounts is the fake backend's work counters.
type fakeCounts struct {
	Frags, Rows, DeltaRows int64
}

func (c fakeCounts) Plus(o fakeCounts) fakeCounts {
	return fakeCounts{c.Frags + o.Frags, c.Rows + o.Rows, c.DeltaRows + o.DeltaRows}
}

func (c fakeCounts) WithDeltaRows(n int64) fakeCounts {
	c.DeltaRows += n
	return c
}

// fakeRow is one fact row: its leaf members and measures.
type fakeRow struct {
	keys    []uint16
	u, d, c int64
}

// fakeScratch is the fake backend's worker scratch: inUse is set while a
// fold holds it, so two tasks on one scratch show.
type fakeScratch struct{ inUse atomic.Bool }

// fakeBackend is the substitution the one-function contract exists for:
// fragment id → rows, scanned row by row. fail makes a fragment's fold
// fail, panicAt makes it panic. The scratch list counts what it builds
// and the folds count the times they found their scratch in use.
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
	for _, r := range b.rows[id] {
		c.Rows++
		if b.match(q, r) {
			slot.AddLeaves(r.keys, r.u, r.d, r.c)
		}
	}
	return nil
}

func (b *fakeBackend) solo(ctx context.Context, s *exec.Scheduler, q frag.Query, deltas Deltas, own func(int64) bool) (Out[fakeCounts], error) {
	return Solo(ctx, b.dispatch(s), q, deltas, own, func() (SoloFold[*fakeScratch, fakeCounts], error) {
		return func(sc *fakeScratch, id int64, q frag.Query, slot Slot) (FragPartial, fakeCounts, error) {
			var c fakeCounts
			err := b.fold(sc, id, q, &slot, &c)
			return slot.FP, c, err
		}, nil
	})
}

func (b *fakeBackend) shared(ctx context.Context, s *exec.Scheduler, qs []frag.Query, deltas Deltas, own func(int64) bool) ([]Out[fakeCounts], error) {
	return Shared(ctx, b.dispatch(s), qs, deltas, own, func([]BatchQuery) (SharedFold[*fakeScratch, fakeCounts], error) {
		return func(sc *fakeScratch, id int64, ms []Member[fakeCounts], slots []Slot) error {
			for k := range ms {
				if err := b.fold(sc, id, qs[ms[k].Query], &slots[k], &ms[k].St); err != nil {
					return err
				}
				if len(ms) >= 2 {
					ms[k].Shared.FragmentsShared = 1
				}
			}
			return nil
		}, nil
	})
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
	slot := Slot{}
	if gr != nil {
		slot.PerRow, slot.FP.Groups = gr.PerRow(), NewGrouped()
	}
	src := w.be.rows
	if withDeltas {
		src = w.all
	}
	for id, rows := range src {
		if own != nil && !own(id) {
			continue
		}
		for _, r := range rows {
			if w.be.match(q, r) {
				slot.AddLeaves(r.keys, r.u, r.d, r.c)
			}
		}
	}
	return gr.Result(slot.FP)
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

// TestDriversEqualBruteForce: Solo and every member of a Shared batch
// equal the brute-force fold — ungrouped, fragment-aligned and per-row
// GROUP BY, with and without deltas, over all fragments and over an
// owned subset — and a shared member's outcome equals its solo run
// field by field, stats included, at K = 1, 2 and 16.
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
				solos := make([]Out[fakeCounts], len(qs))
				for i, q := range qs {
					name := fmt.Sprintf("workers=%d/%s/%s/%q", workers, dname, oname, driverQueries[i])
					out, err := w.be.solo(ctx, sched, q, deltas, own)
					if err != nil || out.Err != nil {
						t.Fatalf("%s: %v / %v", name, err, out.Err)
					}
					if got, want := out.Gr.Result(out.Part), w.want(t, q, dname == "deltas", own); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: solo %+v, brute force %+v", name, got, want)
					}
					if (out.Gr != nil) != (len(q.GroupBy) > 0) || (out.Part.Groups != nil) != (out.Gr != nil) {
						t.Errorf("%s: grouper %v, groups %v", name, out.Gr, out.Part.Groups)
					}
					if out.Shared != (SharedScanStats{}) {
						t.Errorf("%s: solo shared stats %+v", name, out.Shared)
					}
					solos[i] = out
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
					if err != nil || len(outs) != k {
						t.Fatalf("%s: %d outcomes, %v", name, len(outs), err)
					}
					for i, got := range outs {
						if k >= 2 && i == 1 {
							// The invalid member's error is its own; its
							// batch-mates are served.
							_, wantErr := w.be.solo(ctx, sched, invalid, deltas, own)
							if got.Err == nil || wantErr == nil || got.Err.Error() != wantErr.Error() || got.Gr != nil || got.Part.Groups != nil {
								t.Errorf("%s slot 1: %+v, solo error %v", name, got, wantErr)
							}
							continue
						}
						want := solos[i%len(qs)]
						if got.Shared.Batched != k || (k == 1 && got.Shared != SharedScanStats{Batched: 1}) {
							t.Errorf("%s slot %d: shared stats %+v", name, i, got.Shared)
						}
						got.Shared = SharedScanStats{}
						if got.St != want.St || got.Err != nil || !reflect.DeepEqual(got.Part, want.Part) ||
							!reflect.DeepEqual(got.Gr.Result(got.Part), want.Gr.Result(want.Part)) {
							t.Errorf("%s slot %d: shared %+v, solo %+v", name, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDriverStats: the drivers sum the backend's counters over exactly
// the owned relevant fragments and credit the delta rows they fold
// themselves — also for a fragment that has delta segments and no base
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
	want := fakeCounts{Frags: frags, Rows: rows, DeltaRows: deltaRows}
	if deltaRows == 0 {
		t.Fatal("the query selects no delta row")
	}
	out, err := w.be.solo(ctx, sched, q, w.deltas, own)
	if err != nil {
		t.Fatal(err)
	}
	if out.St != want {
		t.Errorf("solo counts %+v, want %+v", out.St, want)
	}
	if got, ref := out.Gr.Result(out.Part), w.want(t, q, true, own); !reflect.DeepEqual(got, ref) {
		t.Errorf("solo %+v, brute force %+v", got, ref)
	}
	outs, err := w.be.shared(ctx, sched, []frag.Query{q, q}, w.deltas, own)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.St != want || o.Shared != (SharedScanStats{Batched: 2, FragmentsShared: int(frags)}) {
			t.Errorf("slot %d: counts %+v shared %+v, want %+v over %d shared fragments", i, o.St, o.Shared, want, frags)
		}
		if !reflect.DeepEqual(o.Part, out.Part) {
			t.Errorf("slot %d: partial %+v, solo %+v", i, o.Part, out.Part)
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
		out, err := w.be.solo(ctx, sched, all, w.deltas, nil)
		if err != low || !reflect.DeepEqual(out, Out[fakeCounts]{}) {
			t.Fatalf("solo: %+v, %v; want nothing and the lowest task's error", out, err)
		}
		outs, err := w.be.shared(ctx, sched, []frag.Query{all, all}, w.deltas, nil)
		if err != low || outs != nil {
			t.Fatalf("shared: %+v, %v; want nothing and the lowest task's error", outs, err)
		}
	}
	// The failing fragments are not relevant to an owner of the others.
	spared := func(id int64) bool { return w.be.fail[id] == nil }
	if out, err := w.be.solo(ctx, sched, all, w.deltas, spared); err != nil || !reflect.DeepEqual(out.Gr.Result(out.Part), w.want(t, all, true, spared)) {
		t.Errorf("solo over the healthy fragments: %+v, %v", out, err)
	}

	bindErr := errors.New("no plan")
	if _, err := Solo(ctx, w.be.dispatch(sched), all, Deltas{}, nil, func() (SoloFold[*fakeScratch, fakeCounts], error) { return nil, bindErr }); err != bindErr {
		t.Errorf("solo bind error: %v", err)
	}
	if _, err := Shared(ctx, w.be.dispatch(sched), []frag.Query{all}, Deltas{}, nil, func([]BatchQuery) (SharedFold[*fakeScratch, fakeCounts], error) { return nil, bindErr }); err != bindErr {
		t.Errorf("shared bind error: %v", err)
	}
	if _, err := w.be.solo(ctx, nil, all, Deltas{}, nil); err == nil {
		t.Error("solo accepted a nil scheduler")
	}
	if _, err := w.be.shared(ctx, nil, []frag.Query{all}, Deltas{}, nil); err == nil {
		t.Error("shared accepted a nil scheduler")
	}
	invalid := frag.Query{Preds: []frag.Pred{{Dim: 99}}}
	if out, err := w.be.solo(ctx, sched, invalid, Deltas{}, nil); err == nil || out.Err != err {
		t.Errorf("invalid solo query: Out.Err %v, error %v", out.Err, err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if out, err := w.be.solo(cancelled, sched, all, Deltas{}, spared); !errors.Is(err, context.Canceled) || out.Err != nil {
		t.Errorf("cancelled solo: Out.Err %v, error %v", out.Err, err)
	}
}

// TestScratchNeverInTwoTasks: 16 concurrent Solo and Shared calls on 4
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
					if out, err := w.be.solo(ctx, sched, frag.Query{}, w.deltas, nil); err == nil || !reflect.DeepEqual(out, Out[fakeCounts]{}) {
						t.Errorf("failing call: %+v, %v", out, err)
					}
				case c == 1:
					if out, err := poisoned.solo(ctx, sched, frag.Query{}, w.deltas, nil); err == nil || !reflect.DeepEqual(out, Out[fakeCounts]{}) {
						t.Errorf("panicking call: %+v, %v", out, err)
					}
				case c%2 == 0:
					out, err := w.be.solo(ctx, sched, qs[i], w.deltas, spared)
					if err != nil || !reflect.DeepEqual(out.Gr.Result(out.Part), want[i]) {
						t.Errorf("caller %d round %d: solo %+v, %v; want %+v", c, r, out, err, want[i])
					}
				default:
					j := (i + 1) % len(qs)
					outs, err := w.be.shared(ctx, sched, []frag.Query{qs[i], qs[j]}, w.deltas, spared)
					if err != nil || !reflect.DeepEqual(outs[0].Gr.Result(outs[0].Part), want[i]) || !reflect.DeepEqual(outs[1].Gr.Result(outs[1].Part), want[j]) {
						t.Errorf("caller %d round %d: shared %+v, %v; want %+v and %+v", c, r, outs, err, want[i], want[j])
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
