package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	mdhf "repro"
)

// TestSmoke runs all six workloads, untraced and traced, for a fraction
// of a second each: every metric is reported, every answer is checked,
// and the span file is written.
func TestSmoke(t *testing.T) {
	const seconds = 0.3
	dir := t.TempDir()
	e, err := newEnv(context.Background(), 1, filepath.Join(dir, "scratch"))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(e, w, seconds)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, endToEndOf(w), res, true)
			traceOut := filepath.Join(dir, w.name+".json")
			res, err = runTraced(e, w, seconds, traceOut)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, perLayer, res, false)
			var spans []span
			b, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &spans); err != nil {
				t.Fatal(err)
			}
			roots := map[string]bool{}
			for _, s := range spans {
				if s.Parent == 0 {
					roots[s.Name] = true
				}
				if s.EndNs < s.StartNs || s.Workload != w.name {
					t.Fatalf("malformed span %+v", s)
				}
			}
			if !roots[w.name] || !roots["probe"] {
				t.Errorf("trace roots = %v, want the workload phase and the probe", roots)
			}
		})
	}
}

func checkRun(t *testing.T, specs []metricSpec, res runResult, nonZero bool) {
	t.Helper()
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("attempted %d failed %d, want some attempted and none failed", res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics reported, the contract names %d", len(res.Metrics), len(specs))
	}
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (nonZero && v <= 0) {
			t.Errorf("metric %s = %v (reported %v)", m.Name, v, ok)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics of spec.go, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var f struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the driver's default is %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, workloads.go has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, workloads.go has %s: %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, spec.go has %d", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s metric %d = %+v, spec.go has %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s metric %s: bound %v, spec.go has %v", kind, m.Name, g.Bound, m.Bound)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd, true)
	same("per_layer", f.PerLayer, perLayer, false)
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{50, 30}, {95, 50}, {20, 10}, {21, 20}, {100, 50}, {0, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
	// 20 samples: p95 is the 19th, leaving exactly one beyond it.
	var twenty []float64
	for i := 1; i <= 20; i++ {
		twenty = append(twenty, float64(i))
	}
	if got := percentile(twenty, 95); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
}

func TestCoefVar(t *testing.T) {
	if got := coefVar([]float64{4, 4, 4, 4, 4}); got != 0 {
		t.Errorf("flat slices: %v", got)
	}
	// mean 3, population sd sqrt(2)
	if got, want := coefVar([]float64{1, 2, 3, 4, 5}), math.Sqrt2/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("cov = %v, want %v", got, want)
	}
	if got := coefVar([]float64{0, 0, 0}); got != 0 {
		t.Errorf("all zero: %v", got)
	}
}

// TestOpenLoopSchedule: a burst is launched when due even though the
// previous one is still running, its latency counts from the due instant,
// and generator lateness is reported.
func TestOpenLoopSchedule(t *testing.T) {
	const service, every = 150 * time.Millisecond, 100 * time.Millisecond
	ops := []op{{want: &mdhf.Result{}}}
	slow := func(context.Context, mdhf.Query) (mdhf.Result, mdhf.Stats, error) {
		time.Sleep(service)
		return mdhf.Result{}, mdhf.Stats{}, nil
	}
	ph := openLoop(context.Background(), ops, 0, 3, 2, every, slow, staticCheck, false)
	if len(ph.samples) != 6 {
		t.Fatalf("%d samples, want 6", len(ph.samples))
	}
	for i, s := range ph.samples {
		if due := time.Duration(i/2) * every; s.start != due {
			t.Errorf("sample %d timed from %v, want its due instant %v", i, s.start, due)
		}
		if lat := s.end - s.start; !s.ok || lat < service || lat > service+every {
			t.Errorf("sample %d: ok=%v latency %v, want about %v (bursts overlap, so no queueing)", i, s.ok, lat, service)
		}
	}
	if ph.lateMax < 0 || ph.lateMax > every {
		t.Errorf("generator lateness %v", ph.lateMax)
	}
	if st := summarize(ph); st.attempted != 6 || st.failed != 0 || st.qps <= 0 {
		t.Errorf("summary %+v", st)
	}
}

// TestTailIsWholeWindow: lat_p95_ms is the nearest-rank p95 of every
// operation of the phase, so a slow third of the window shows in it.
func TestTailIsWholeWindow(t *testing.T) {
	ph := phase{window: 3 * time.Second}
	for i := 0; i < 300; i++ {
		start := time.Duration(i) * 10 * time.Millisecond
		lat := time.Duration(1+i%100) * time.Millisecond // 1..100 ms in every second
		if i >= 100 && i < 200 {
			lat *= 10 // the middle second is ten times slower
		}
		ph.samples = append(ph.samples, sample{start: start, end: start + lat, ok: true})
	}
	// Rank 285 of 300: the 200 fast samples and the slow ones up to 100 ms
	// fill ranks 1..210, then the slow ones go up 10 ms a rank.
	if got := summarize(ph).p95ms; got != 850 {
		t.Errorf("p95 = %v ms, want 850 (the slow middle second is not outvoted)", got)
	}
}

// TestAppendStatsAndAllocCut: the write side's figures, and the batch
// count the ingest allocation figure is taken over.
func TestAppendStatsAndAllocCut(t *testing.T) {
	ms := time.Millisecond
	m := measured{phase: phase{window: time.Second, samples: []sample{{end: 100 * ms, ok: true}, {end: 600 * ms, ok: true}}}}
	for i := 0; i < 20; i++ { // appends of 1..20 ms, the last one ends after the window closed
		start := time.Duration(i) * 50 * ms
		m.appends = append(m.appends, appendSample{start: start, end: start + time.Duration(i+1)*ms, ok: true})
	}
	m.appends[19].end = 1100 * ms
	rows, p95, stall := appendStats(m)
	if rows != 19*batchRows || p95 != 19 || stall != 150 {
		t.Errorf("rows/s %v p95 %v ms stall %v ms, want %v, 19 and 150", rows, p95, stall, 19*batchRows)
	}
	if got := m.appendsBy(500 * ms); got != 10 {
		t.Errorf("%d appends ended by 500 ms, want the 10 started at 0..450 ms", got)
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	ops := []op{{want: &mdhf.Result{}}, {want: &mdhf.Result{Aggregate: mdhf.Aggregate{Count: 1}}}}
	zero := func(context.Context, mdhf.Query) (mdhf.Result, mdhf.Stats, error) {
		return mdhf.Result{}, mdhf.Stats{}, nil
	}
	st := summarize(closedLoop(context.Background(), 2, ops, 0, 0, 10, zero, staticCheck, nil, false))
	if st.attempted != 10 || st.failed != 5 {
		t.Errorf("attempted %d failed %d, want 10 and 5 (every second answer is wrong)", st.attempted, st.failed)
	}
}

func TestJudge(t *testing.T) {
	at := func(vs ...float64) metricSummary { return summarizeValues("", vs) }
	qps, _ := findMetric(endToEnd, "qps")
	lat, _ := findMetric(endToEnd, "lat_p50_ms")
	setup, _ := findMetric(endToEnd, "setup_s")
	wide := 1 + 2*qps.Bound
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b metricSummary
		want string
	}{
		{"same", qps, at(100, 101, 99), at(100, 100, 101), verdictUnchanged},
		{"higher-is-better drops past the bound", qps, at(100), at(100 * (1 - 1.5*qps.Bound)), verdictRegression},
		{"higher-is-better rises past the bound", qps, at(100), at(100 * (1 + 1.5*qps.Bound)), verdictImproved},
		{"lower-is-better rises past the bound", lat, at(10), at(10 * (1 + 1.5*lat.Bound)), verdictRegression},
		{"lower-is-better inside the bound", lat, at(10), at(10 * (1 + 0.5*lat.Bound)), verdictUnchanged},
		{"spread wider than the bound", qps, at(100, 100*wide, 100/wide), at(100), verdictUnresolved},
		{"regression wins over spread", qps, at(100, 100*wide, 100/wide), at(50), verdictRegression},
		{"setup within the absolute slack", setup, at(0.2), at(0.4), verdictUnchanged},
		{"setup past both limits", setup, at(1), at(2), verdictRegression},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitCodes(t *testing.T) {
	mk := func(failed int) resultFile {
		f := resultFile{Workloads: map[string]workloadReport{}}
		for _, w := range workloads {
			rep := workloadReport{Attempted: 10, Failed: failed, FailRatio: float64(failed) / 10, EndToEnd: map[string]metricSummary{}}
			for _, m := range endToEndOf(&w) {
				rep.EndToEnd[m.Name] = summarizeValues(m.Unit, []float64{1})
			}
			f.Workloads[w.name] = rep
		}
		return f
	}
	with := func(workload, metric string, v *float64) resultFile {
		f := mk(0)
		if v == nil {
			delete(f.Workloads[workload].EndToEnd, metric)
		} else {
			f.Workloads[workload].EndToEnd[metric] = summarizeValues("", []float64{*v})
		}
		return f
	}
	zero, worse := 0.0, 0.5
	for _, c := range []struct {
		name string
		a, b resultFile
		want int
	}{
		{"identical files", mk(0), mk(0), 0},
		{"fail_ratio rose", mk(0), mk(1), 1},
		{"metric missing from B", mk(0), with("cpu_mem", "lat_p50_ms", nil), 1},
		{"metric missing from A", with("cpu_mem", "lat_p50_ms", nil), mk(0), 1},
		{"lower-is-better metric collapsed to 0 in B", mk(0), with("disk_cold", "lat_p95_ms", &zero), 1},
		{"zero baseline", with("disk_cold", "qps", &zero), mk(0), 1},
		{"the append side of ingest_mixed is judged", mk(0), with("ingest_mixed", "append_rows_per_s", &worse), 1},
		{"the append side of ingest_mixed must be there", mk(0), with("ingest_mixed", "append_p95_ms", nil), 1},
	} {
		var out strings.Builder
		if code := compareResults(&out, c.a, c.b); code != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.want, out.String())
		}
	}
}

func TestGenQueriesStratifiedAndSeeded(t *testing.T) {
	star := mdhf.APB1Scaled(scaleFactor)
	a, err := genQueries(star, 7, mixAPB9, 900)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genQueries(star, 7, mixAPB9, 900)
	c, _ := genQueries(star, 8, mixAPB9, 900)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different queries")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same queries")
	}
	grouped := 0
	for i := 0; i < len(a); i += len(mixAPB9) {
		if n := len(mixOf(a[i : i+len(mixAPB9)])); n != len(mixAPB9) {
			t.Fatalf("queries %d..%d hold %d of the %d types", i, i+len(mixAPB9), n, len(mixAPB9))
		}
	}
	for _, p := range a {
		if len(p.q.GroupBy) > 0 {
			grouped++
		}
	}
	if want := len(a) * groupedCount / groupedOutOf; grouped != want {
		t.Errorf("%d grouped queries, want %d", grouped, want)
	}
}

func TestAddResults(t *testing.T) {
	row := func(m int, n int64) mdhf.GroupRow {
		return mdhf.GroupRow{Members: []int{m}, Agg: mdhf.Aggregate{Count: n, UnitsSold: n}}
	}
	a := mdhf.Result{Aggregate: mdhf.Aggregate{Count: 3, UnitsSold: 3}, Groups: []mdhf.GroupRow{row(1, 1), row(4, 2)}}
	b := mdhf.Result{Aggregate: mdhf.Aggregate{Count: 5, UnitsSold: 5}, Groups: []mdhf.GroupRow{row(0, 1), row(4, 4)}}
	want := mdhf.Result{Aggregate: mdhf.Aggregate{Count: 8, UnitsSold: 8}, Groups: []mdhf.GroupRow{row(0, 1), row(1, 1), row(4, 6)}}
	if got := addResults(a, b); !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v\nwant %+v", got, want)
	}
	plain := addResults(mdhf.Result{Aggregate: mdhf.Aggregate{Count: 1}}, mdhf.Result{Aggregate: mdhf.Aggregate{Count: 2}})
	if plain.Count != 3 || plain.Groups != nil {
		t.Errorf("ungrouped sum %+v", plain)
	}
}

func findMetric(specs []metricSpec, name string) (metricSpec, bool) {
	for _, m := range specs {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// mixOf counts the distinct predicate shapes in a sample — the size of
// the mix it was drawn from.
func mixOf(sample []op) map[string]bool {
	shapes := map[string]bool{}
	for _, p := range sample {
		shape := ""
		for _, pd := range p.q.Preds {
			shape += fmt.Sprintf("%d.%d,", pd.Dim, pd.Level)
		}
		shapes[shape] = true
	}
	return shapes
}
