package experiments

import (
	"context"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/schema"
	"repro/internal/simpad"
	"repro/internal/workload"
)

// Point is one simulated data point of a figure.
type Point struct {
	X float64
	// ResponseTime is the average response time in seconds.
	ResponseTime float64
	// Speedup is relative to the curve's baseline point (first X).
	Speedup float64
	// Subqueries and DiskOps are summed over the point's queries; Events
	// is the number of simulation events its run executed.
	Subqueries int
	DiskOps    int64
	Events     int64
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is one reproduced figure: a set of response time curves (the
// speed-up view is derived per curve).
type Figure struct {
	Name   string
	XLabel string
	Series []Series
}

// Options controls figure regeneration.
type Options struct {
	// Queries is the number of queries averaged per data point (the paper
	// averages a single-user query stream). Default 1: with deterministic
	// service times, repeats only smooth parameter randomisation.
	Queries int
	// Seed drives query parameter randomisation.
	Seed int64
	// Workers is the number of parallel simulation workers regenerating a
	// figure's data points (each point is an independent deterministic
	// simulation, so the figure is identical at any worker count). Values
	// below 1 mean sequential, the memory-conservative default; 0 passed
	// through from a CLI -workers flag therefore also means sequential,
	// and exec.Workers semantics apply only to explicit counts.
	Workers int
}

func (o Options) queries() int {
	if o.Queries <= 0 {
		return 1
	}
	return o.Queries
}

func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// pointJob is one simulated data point of a figure: a full system
// configuration plus the series and x-position its result lands in.
type pointJob struct {
	series int
	x      float64
	cfg    simpad.Config
	spec   *frag.Spec
	qt     workload.QueryType
}

// simulate runs the jobs on opt.Workers parallel simulation workers
// (exec.Map) and appends the resulting points to their series in job
// order, then annotates speed-ups. Each job builds its own simulator, so
// parallel regeneration is deterministic.
func simulate(fig *Figure, jobs []pointJob, icfg frag.IndexConfig, opt Options) {
	pts, err := exec.Map(context.Background(), opt.workers(), len(jobs), func(i int) (Point, error) {
		j := jobs[i]
		p := runPoint(j.cfg, j.spec, icfg, j.qt, opt)
		p.X = j.x
		return p, nil
	})
	if err != nil { // jobs never fail; only a cancelled context could
		panic(err)
	}
	for i, p := range pts {
		s := &fig.Series[jobs[i].series]
		s.Points = append(s.Points, p)
	}
	for i := range fig.Series {
		annotateSpeedup(&fig.Series[i])
	}
}

// runPoint simulates a stream of queries of one type and returns its mean
// response time and summed counts.
func runPoint(cfg simpad.Config, spec *frag.Spec, icfg frag.IndexConfig, qt workload.QueryType, opt Options) Point {
	star := spec.Star()
	placement := alloc.Placement{Disks: cfg.Disks, Scheme: alloc.RoundRobin, Staggered: true}
	sys, err := simpad.NewSystem(cfg, icfg, placement, opt.Seed)
	if err != nil {
		panic(err)
	}
	gen := workload.NewGenerator(star, opt.Seed)
	var plans []*simpad.Plan
	for i := 0; i < opt.queries(); i++ {
		q, err := gen.Next(qt)
		if err != nil {
			panic(err)
		}
		plans = append(plans, simpad.NewPlan(spec, icfg, q, cfg))
	}
	rs := sys.Run(plans)
	// Result.Events counts the run's events so far, so the last is the total.
	p := Point{ResponseTime: simpad.MeanResponseTime(rs), Events: rs[len(rs)-1].Events}
	for _, r := range rs {
		p.Subqueries += r.Subqueries
		p.DiskOps += r.DiskOps
	}
	return p
}

// Figure3 reproduces the speed-up experiment for the disk-bound 1STORE
// query (Section 6.1): FMonthGroup, t = d/p, disks 20..100, processors
// p = d/20 .. d/2. One curve per p/d ratio.
func Figure3(opt Options) Figure {
	star := schema.APB1()
	icfg := frag.APB1Indexes(star)
	spec := frag.MustParse(star, "time::month, product::group")

	fig := Figure{Name: "Figure 3: 1STORE response time (disk-bound)", XLabel: "disks d"}
	ratios := []int{2, 4, 5, 10, 20} // p = d / ratio
	var jobs []pointJob
	for si, ratio := range ratios {
		fig.Series = append(fig.Series, Series{Label: fmt.Sprintf("p = d/%d", ratio)})
		for _, d := range []int{20, 60, 100} {
			p := d / ratio
			if p < 1 {
				p = 1
			}
			cfg := simpad.DefaultConfig()
			cfg.Disks = d
			cfg.Nodes = p
			cfg.TasksPerNode = d / p
			jobs = append(jobs, pointJob{series: si, x: float64(d), cfg: cfg, spec: spec, qt: workload.OneStore})
		}
	}
	simulate(&fig, jobs, icfg, opt)
	return fig
}

// Figure4 reproduces the speed-up experiment for the CPU-bound 1MONTH
// query (Section 6.1): t = 4, one curve per disk count, plus the t = 5 fix
// at d = 100 (the batching discretisation at p = 50).
func Figure4(opt Options) Figure {
	star := schema.APB1()
	icfg := frag.APB1Indexes(star)
	spec := frag.MustParse(star, "time::month, product::group")

	fig := Figure{Name: "Figure 4: 1MONTH response time (CPU-bound)", XLabel: "processors p"}
	// Table 5's hardware configurations.
	curves := []struct {
		label string
		d     int
		ps    []int
		t     int
	}{
		{"d = 20 (t=4)", 20, []int{1, 2, 4, 5, 10}, 4},
		{"d = 60 (t=4)", 60, []int{3, 6, 12, 15, 30}, 4},
		{"d = 100 (t=4)", 100, []int{5, 10, 20, 25, 50}, 4},
		{"d = 100 (t=5)", 100, []int{5, 10, 20, 25, 50}, 5},
	}
	var jobs []pointJob
	for si, c := range curves {
		fig.Series = append(fig.Series, Series{Label: c.label})
		for _, p := range c.ps {
			cfg := simpad.DefaultConfig()
			cfg.Disks = c.d
			cfg.Nodes = p
			cfg.TasksPerNode = c.t
			jobs = append(jobs, pointJob{series: si, x: float64(p), cfg: cfg, spec: spec, qt: workload.OneMonth})
		}
	}
	simulate(&fig, jobs, icfg, opt)
	return fig
}

// Figure5 reproduces the parallel-bitmap-I/O experiment (Section 6.2):
// 1STORE on 100 disks / 20 nodes, subqueries per node t = 1..13, with and
// without parallel bitmap I/O within a subquery.
func Figure5(opt Options) Figure {
	star := schema.APB1()
	icfg := frag.APB1Indexes(star)
	spec := frag.MustParse(star, "time::month, product::group")

	fig := Figure{Name: "Figure 5: parallel bitmap I/O (1STORE)", XLabel: "subqueries per node t"}
	var jobs []pointJob
	for si, parallel := range []bool{false, true} {
		label := "non-parallel I/O"
		if parallel {
			label = "parallel I/O"
		}
		fig.Series = append(fig.Series, Series{Label: label})
		for t := 1; t <= 13; t += 2 {
			cfg := simpad.DefaultConfig()
			cfg.TasksPerNode = t
			cfg.ParallelBitmapIO = parallel
			jobs = append(jobs, pointJob{series: si, x: float64(t), cfg: cfg, spec: spec, qt: workload.OneStore})
		}
	}
	simulate(&fig, jobs, icfg, opt)
	return fig
}

// figure6Fragmentations are the three fragmentations of Section 6.3,
// differing only in the product hierarchy level (Table 6).
var figure6Fragmentations = []struct{ label, text string }{
	{"product group fragmentation", "time::month, product::group"},
	{"product class fragmentation", "time::month, product::class"},
	{"product code fragmentation", "time::month, product::code"},
}

// Figure6Store reproduces the 1STORE panel of Figure 6: response time vs
// the total degree of parallelism (20..160 subqueries over 20 nodes) for
// the three fragmentations.
func Figure6Store(opt Options) Figure {
	star := schema.APB1()
	icfg := frag.APB1Indexes(star)
	fig := Figure{Name: "Figure 6: 1STORE by fragmentation", XLabel: "degree of parallelism"}
	var jobs []pointJob
	for si, f := range figure6Fragmentations {
		spec := frag.MustParse(star, f.text)
		fig.Series = append(fig.Series, Series{Label: f.label})
		for _, dop := range []int{20, 40, 80, 160} {
			cfg := simpad.DefaultConfig()
			cfg.TasksPerNode = (dop + cfg.Nodes - 1) / cfg.Nodes
			cfg.MaxConcurrentSubqueries = dop
			jobs = append(jobs, pointJob{series: si, x: float64(dop), cfg: cfg, spec: spec, qt: workload.OneStore})
		}
	}
	simulate(&fig, jobs, icfg, opt)
	return fig
}

// Figure6CodeQuarter reproduces the 1CODE1QUARTER panel of Figure 6:
// response time vs degree of parallelism 1..5 (the query touches only 3
// fragments) for the three fragmentations.
func Figure6CodeQuarter(opt Options) Figure {
	star := schema.APB1()
	icfg := frag.APB1Indexes(star)
	fig := Figure{Name: "Figure 6: 1CODE1QUARTER by fragmentation", XLabel: "degree of parallelism"}
	var jobs []pointJob
	for si, f := range figure6Fragmentations {
		spec := frag.MustParse(star, f.text)
		fig.Series = append(fig.Series, Series{Label: f.label})
		for dop := 1; dop <= 5; dop++ {
			cfg := simpad.DefaultConfig()
			cfg.MaxConcurrentSubqueries = dop
			jobs = append(jobs, pointJob{series: si, x: float64(dop), cfg: cfg, spec: spec, qt: workload.OneCodeOneQuarter})
		}
	}
	simulate(&fig, jobs, icfg, opt)
	return fig
}

// annotateSpeedup fills Speedup relative to the first point of the series.
func annotateSpeedup(s *Series) {
	if len(s.Points) == 0 {
		return
	}
	base := s.Points[0].ResponseTime
	for i := range s.Points {
		if s.Points[i].ResponseTime > 0 {
			s.Points[i].Speedup = base / s.Points[i].ResponseTime
		}
	}
}
