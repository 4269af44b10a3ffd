package epoch

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/schema"
	"repro/internal/storage"
)

var execQueries = []string{
	"time::month=1, product::group=1",
	"time::month=2, product::code=5",
	"time::quarter=1",
	"customer::store=2",
	"",
	"time::month=1 group by product::group",
	"customer::retailer=1 group by time::month, product::class",
	"group by time::quarter, customer::store",
}

// testWorld is a generated tiny table cut into the rows a store is built
// over and the rows appended to it later, both restricted to the
// fragments own selects.
type testWorld struct {
	star        *schema.Star
	spec        *frag.Spec
	base, all   *data.Table
	extra       []Row
	queries     []frag.Query
	errClosed   error
	extraOracle *data.Table
}

func newTestWorld(t *testing.T, own func(int64) bool) *testWorld {
	t.Helper()
	star := schema.Tiny()
	w := &testWorld{star: star, spec: frag.MustParse(star, "time::month, product::group"), errClosed: errors.New("store closed")}
	full := data.MustGenerate(star, 42)
	newTable := func() *data.Table { return &data.Table{Star: star, Dims: make([][]int32, len(star.Dims))} }
	w.base, w.all, w.extraOracle = newTable(), newTable(), newTable()
	add := func(dst *data.Table, i int) {
		for d := range full.Dims {
			dst.Dims[d] = append(dst.Dims[d], full.Dims[d][i])
		}
		dst.UnitsSold = append(dst.UnitsSold, full.UnitsSold[i])
		dst.DollarSales = append(dst.DollarSales, full.DollarSales[i])
		dst.Cost = append(dst.Cost, full.Cost[i])
	}
	buf := make([]int, len(star.Dims))
	for i := 0; i < full.N(); i++ {
		if id := w.spec.ID(w.spec.CoordOf(full.LeafMembers(i, buf))); own != nil && !own(id) {
			continue
		}
		add(w.all, i)
		if i < full.N()*2/3 {
			add(w.base, i)
			continue
		}
		add(w.extraOracle, i)
		r := Row{Leaves: make([]int32, len(star.Dims)), UnitsSold: full.UnitsSold[i], DollarSales: full.DollarSales[i], Cost: full.Cost[i]}
		for d := range full.Dims {
			r.Leaves[d] = full.Dims[d][i]
		}
		w.extra = append(w.extra, r)
	}
	for _, text := range execQueries {
		q, err := frag.ParseQuery(star, text)
		if err != nil {
			t.Fatal(err)
		}
		w.queries = append(w.queries, q)
	}
	return w
}

// open builds a store over the world's base rows; mutate adjusts the
// configuration. The store is closed with the test.
func (w *testWorld) open(t *testing.T, own func(int64) bool, mutate func(*Config)) *Store {
	t.Helper()
	sched := exec.NewScheduler(2)
	t.Cleanup(sched.Close) // after the store's Close, registered below
	cfg := Config{Spec: w.spec, Indexes: frag.APB1Indexes(w.star), Own: own, Sched: sched, Closed: w.errClosed}
	if mutate != nil {
		mutate(&cfg)
	}
	if cfg.OnDisk {
		cfg.Dir = t.TempDir()
	}
	s := New(cfg)
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	if err := s.Build(w.base); err != nil {
		t.Fatal(err)
	}
	return s
}

// run executes one query the way both façades do: register, pin, Exec.
func run(ctx context.Context, s *Store, q frag.Query) (Out, error) {
	if err := s.Begin(); err != nil {
		return Out{}, err
	}
	defer s.End()
	snap, err := s.Pin()
	if err != nil {
		return Out{}, err
	}
	defer s.Unpin(snap.B)
	return s.Exec(ctx, snap, q)
}

// runAll executes every query at once, so that with sharing on they meet
// in admission windows.
func runAll(s *Store, qs []frag.Query) ([]Out, []error) {
	outs, errs := make([]Out, len(qs)), make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = run(context.Background(), s, q)
		}()
	}
	wg.Wait()
	return outs, errs
}

var backends = map[string]func(*Config){
	"memory":            nil,
	"memory-compressed": func(c *Config) { c.Compress = true },
	"disk":              func(c *Config) { c.OnDisk = true },
	"disk-declustered": func(c *Config) {
		c.OnDisk, c.Compress = true, true
		c.Placement = alloc.Placement{Disks: 3, Scheme: alloc.RoundRobin, Staggered: true}
	},
}

// TestExecEqualsOracle: Store.Exec — the one call both façades make —
// equals the brute-force ScanGrouped oracle on every backend, with
// sharing off and on, before and after appends, over every fragment and
// under an ownership predicate; the work is counted on the backend's
// own side of Out, and delta rows are counted once.
func TestExecEqualsOracle(t *testing.T) {
	owns := map[string]func(int64) bool{"all": nil, "own": func(id int64) bool { return id%3 != 1 }}
	for oname, own := range owns {
		w := newTestWorld(t, own)
		for bname, backend := range backends {
			for _, window := range []time.Duration{0, 2 * time.Millisecond} {
				t.Run(fmt.Sprintf("%s/%s/window=%v", bname, oname, window), func(t *testing.T) {
					s := w.open(t, own, func(c *Config) {
						if backend != nil {
							backend(c)
						}
						c.SharedWindow = window
					})
					check := func(stage string, table *data.Table, deltas *data.Table) {
						t.Helper()
						outs, errs := runAll(s, w.queries)
						for i, q := range w.queries {
							if errs[i] != nil || outs[i].Err != nil {
								t.Fatalf("%s %q: %v / %v", stage, execQueries[i], errs[i], outs[i].Err)
							}
							out := outs[i]
							want, err := engine.ScanGrouped(table, q)
							if err != nil {
								t.Fatal(err)
							}
							if got := out.Gr.Result(out.Part); !reflect.DeepEqual(got, want) {
								t.Errorf("%s %q: %+v, oracle %+v", stage, execQueries[i], got, want)
							}
							if (out.Part.Groups != nil) != (len(q.GroupBy) > 0) {
								t.Errorf("%s %q: partial groups %v", stage, execQueries[i], out.Part.Groups)
							}
							wantDelta := int64(0)
							if deltas != nil {
								wantDelta = engine.Scan(deltas, q).Count
							}
							onDisk := s.cfg.OnDisk
							if out.DeltaRows != wantDelta ||
								onDisk != (out.Engine == kernel.Stats{}) || !onDisk != (out.IO == storage.IOStats{}) {
								t.Errorf("%s %q: %d delta rows (want %d), engine %+v, io %+v", stage, execQueries[i], out.DeltaRows, wantDelta, out.Engine, out.IO)
							}
							if window == 0 && out.Shared != (kernel.SharedScanStats{}) {
								t.Errorf("%s %q: shared stats %+v without sharing", stage, execQueries[i], out.Shared)
							}
							if window > 0 && out.Shared.Batched < 1 {
								t.Errorf("%s %q: shared stats %+v", stage, execQueries[i], out.Shared)
							}
						}
					}
					check("base", w.base, nil)
					if err := s.Begin(); err != nil {
						t.Fatal(err)
					}
					for lo := 0; lo < len(w.extra); lo += len(w.extra)/3 + 1 {
						if err := s.Append(w.extra[lo:min(lo+len(w.extra)/3+1, len(w.extra))]); err != nil {
							t.Fatal(err)
						}
					}
					s.End()
					check("base+deltas", w.all, w.extraOracle)
					if st := s.SharedStats(); st.Fallbacks != 0 || (window == 0 && st != SharedStats{}) ||
						(window > 0 && st.SoloWindows+st.BatchedQueries != int64(2*len(w.queries))) {
						t.Errorf("shared stats %+v", st)
					}
				})
			}
		}
	}
}

// TestExecLoneWindow: a window that seals with one query runs it solo,
// yet reports a batch of one and counts a solo window; an invalid lone
// query gets its own error back and is no fallback.
func TestExecLoneWindow(t *testing.T) {
	w := newTestWorld(t, nil)
	for bname, backend := range backends {
		t.Run(bname, func(t *testing.T) {
			s := w.open(t, nil, func(c *Config) {
				if backend != nil {
					backend(c)
				}
				c.SharedWindow = time.Millisecond
			})
			for i, q := range w.queries {
				out, err := run(context.Background(), s, q)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := engine.ScanGrouped(w.base, q)
				if got := out.Gr.Result(out.Part); !reflect.DeepEqual(got, want) {
					t.Errorf("%q: %+v, oracle %+v", execQueries[i], got, want)
				}
				if out.Shared != (kernel.SharedScanStats{Batched: 1}) {
					t.Errorf("%q: shared stats %+v", execQueries[i], out.Shared)
				}
			}
			out, err := run(context.Background(), s, frag.Query{Preds: []frag.Pred{{Dim: 99}}})
			if err == nil || out.Err != err {
				t.Errorf("invalid query: Out.Err %v, error %v", out.Err, err)
			}
			if st, n := s.SharedStats(), int64(len(w.queries)+1); st != (SharedStats{SoloWindows: n}) {
				t.Errorf("shared stats %+v, want %d solo windows and nothing else", st, n)
			}
		})
	}
}

// TestExecBatchFailureFallsBack: with a fact page of one fragment
// corrupted on disk, a batch holding a query over that fragment fails as
// a whole; every member counts a fallback and runs solo — the query over
// the bad fragment surfaces the typed checksum fault, its batch-mate is
// served. A lone window failing the same way is a fallback too.
func TestExecBatchFailureFallsBack(t *testing.T) {
	w := newTestWorld(t, nil)
	s := w.open(t, nil, func(c *Config) { c.OnDisk, c.SharedWindow = true, 300*time.Millisecond })
	bad, err := frag.ParseQuery(w.star, "time::month=2, product::group=1")
	if err != nil {
		t.Fatal(err)
	}
	good, err := frag.ParseQuery(w.star, "time::month=3 group by product::class")
	if err != nil {
		t.Fatal(err)
	}
	badID := w.spec.FragmentIDs(bad)[0]
	loc, ok := s.Current().B.Disk.Store.Loc(badID)
	if !ok || loc.Rows == 0 {
		t.Fatalf("fragment %d has no rows", badID)
	}
	f, err := os.OpenFile(filepath.Join(s.rootDir, "epoch-000", "fact.dat"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := loc.PageOff * int64(w.star.PageSize)
	one := make([]byte, 1)
	if _, err := f.ReadAt(one, off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xFF
	if _, err := f.WriteAt(one, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	outs, errs := runAll(s, []frag.Query{bad, good})
	var fe *storage.FaultError
	if !errors.As(errs[0], &fe) || fe.Kind != storage.FaultChecksum || fe.Frag != badID {
		t.Errorf("query over the corrupt fragment: %v, want a checksum *FaultError in fragment %d", errs[0], badID)
	}
	want, _ := engine.ScanGrouped(w.base, good)
	if got := outs[1].Gr.Result(outs[1].Part); errs[1] != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("batch-mate: %+v, %v; oracle %+v", got, errs[1], want)
	}
	// The two met in one window (300 ms) unless the host stalled one of
	// them for that long; then the bad query failed a lone window.
	if st := s.SharedStats(); st.Batches != 0 || st.Fallbacks < 1 || st.Fallbacks > 2 || st.Fallbacks+st.SoloWindows != 2 {
		t.Errorf("shared stats after the failed batch: %+v", st)
	}
	if outs[1].Shared.Batched > 1 {
		t.Errorf("batch-mate of a failed batch reports %+v", outs[1].Shared)
	}

	before := s.SharedStats()
	if _, err := run(context.Background(), s, bad); !errors.As(err, &fe) || fe.Kind != storage.FaultChecksum {
		t.Errorf("lone query over the corrupt fragment: %v", err)
	}
	if st := s.SharedStats(); st.Fallbacks != before.Fallbacks+1 || st.SoloWindows != before.SoloWindows {
		t.Errorf("shared stats after the failed lone window: %+v, before %+v", st, before)
	}
}

// TestExecCancelledMember: a member whose own context has expired gets
// that error back — no fallback, no solo retry. A live query admitted
// beside it is served either way: by the batch, or — when the cancelled
// member led its window — by its own fallback.
func TestExecCancelledMember(t *testing.T) {
	w := newTestWorld(t, nil)
	for bname, backend := range backends {
		t.Run(bname, func(t *testing.T) {
			s := w.open(t, nil, func(c *Config) {
				if backend != nil {
					backend(c)
				}
				c.SharedWindow = 20 * time.Millisecond
			})
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := run(cancelled, s, w.queries[0]); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled member: %v", err)
			}
			if st := s.SharedStats(); st != (SharedStats{}) {
				t.Errorf("shared stats %+v: a member's own cancellation is no fallback", st)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := run(cancelled, s, w.queries[0]); !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled member: %v", err)
				}
			}()
			out, err := run(context.Background(), s, w.queries[5])
			wg.Wait()
			want, _ := engine.ScanGrouped(w.base, w.queries[5])
			if got := out.Gr.Result(out.Part); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("live member: %+v, %v; oracle %+v", got, err, want)
			}
			if st := s.SharedStats(); st.Fallbacks > 1 {
				t.Errorf("shared stats %+v", st)
			}
		})
	}
}

// TestExecAfterClose: the store refuses work once closed.
func TestExecAfterClose(t *testing.T) {
	w := newTestWorld(t, nil)
	s := w.open(t, nil, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), s, w.queries[0]); err != w.errClosed {
		t.Errorf("Exec after Close: %v, want %v", err, w.errClosed)
	}
}
