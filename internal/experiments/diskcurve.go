package experiments

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/alloc"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/workload"
)

// DiskCurveOptions configures the measured disk-scaling experiment — the
// executable counterpart of the paper's speedup-vs-disks curves
// (Figure 3), run against the real on-disk executor with per-disk
// serialized I/O queues instead of the SIMPAD simulator.
type DiskCurveOptions struct {
	// Scale is the APB1Scaled reduction factor of the generated warehouse
	// (default 60, the benchmark scale).
	Scale int
	// Disks are the declustering widths measured (default 1/2/4/8/16).
	Disks []int
	// Workers is the size of the scheduler the executor runs on (default
	// 16, at least the widest disk count so the disks are the bottleneck).
	Workers int
	// Delay is the simulated per-disk access time (default 500µs), the
	// disk-model regime where declustering is the bottleneck.
	Delay time.Duration
	// Queries is the number of repetitions averaged per point (default 3).
	Queries int
	// Seed drives data generation and query parameters.
	Seed int64
	// Scheme is the fact placement scheme (default round-robin).
	Scheme alloc.Scheme
}

func (o *DiskCurveOptions) defaults() {
	if o.Scale <= 0 {
		o.Scale = 60
	}
	if len(o.Disks) == 0 {
		o.Disks = []int{1, 2, 4, 8, 16}
	}
	if o.Workers <= 0 {
		o.Workers = 16
	}
	if o.Delay == 0 {
		o.Delay = 500 * time.Microsecond
	}
	if o.Queries <= 0 {
		o.Queries = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// DiskScalingCurve builds a reduced-scale APB-1 warehouse on disk, runs
// 1STORE (the paper's disk-bound query: every fragment relevant, bitmap
// I/O on each) declustered over each disk count, and returns one measured
// and one modelled response-time series. The measured points come from
// wall-clock executions against storage.DiskSet's serialized queues; the
// modelled points from cost.EstimateResponse's bottleneck-queue model.
// Results of every disk count are verified identical to the single-disk
// execution before timing.
func DiskScalingCurve(o DiskCurveOptions) (Figure, error) {
	o.defaults()
	fig := Figure{Name: "Disk scaling: 1STORE response time (measured executor vs queue model)", XLabel: "disks d"}

	star := schema.APB1Scaled(o.Scale)
	tab, err := data.Generate(star, o.Seed)
	if err != nil {
		return fig, err
	}
	spec := frag.MustParse(star, "time::month, product::group")
	icfg := frag.APB1Indexes(star)
	dir, err := os.MkdirTemp("", "mdhf-diskcurve-*")
	if err != nil {
		return fig, err
	}
	defer os.RemoveAll(dir)
	store, err := storage.Build(dir, tab, spec)
	if err != nil {
		return fig, err
	}
	defer store.Close()
	bf, err := storage.BuildBitmaps(dir, store, icfg)
	if err != nil {
		return fig, err
	}
	defer bf.Close()

	gen := workload.NewGenerator(star, o.Seed)
	q, err := gen.Next(workload.OneStore)
	if err != nil {
		return fig, err
	}

	ctx := context.Background()
	sched := exec.NewScheduler(o.Workers)
	defer sched.Close()

	measured := Series{Label: fmt.Sprintf("measured (delay %v, %d workers)", o.Delay, o.Workers)}
	modelled := Series{Label: "queue model"}
	var baseAgg storage.Aggregate
	var baseSt storage.IOStats
	for i, d := range o.Disks {
		placement := alloc.Placement{Disks: d, Scheme: o.Scheme, Staggered: true}
		ds := storage.NewDiskSet(d)
		if err := store.Decluster(placement, ds); err != nil {
			return fig, err
		}
		if err := bf.Decluster(placement, ds); err != nil {
			return fig, err
		}
		ex, err := storage.NewExecutor(store, bf, sched)
		if err != nil {
			return fig, err
		}

		// Correctness first, without delay: declustered == single-disk.
		res, st, err := ex.ExecuteGroupedDeltas(ctx, q, kernel.Deltas{})
		if err != nil {
			return fig, err
		}
		if i == 0 {
			baseAgg, baseSt = res.Aggregate, st
		} else if res.Aggregate != baseAgg || st != baseSt {
			return fig, fmt.Errorf("experiments: %d-disk result diverged from %d-disk baseline", d, o.Disks[0])
		}

		ds.SetIODelay(o.Delay)
		var total time.Duration
		for r := 0; r < o.Queries; r++ {
			startT := time.Now()
			if _, _, err := ex.ExecuteGroupedDeltas(ctx, q, kernel.Deltas{}); err != nil {
				return fig, err
			}
			total += time.Since(startT)
		}
		measured.Points = append(measured.Points, Point{
			X:            float64(d),
			ResponseTime: (total / time.Duration(o.Queries)).Seconds(),
		})

		est := cost.EstimateResponse(spec, icfg, q, cost.DefaultParams(), cost.DiskParams{
			Placement:  placement,
			AccessTime: o.Delay,
			Workers:    o.Workers,
		})
		modelled.Points = append(modelled.Points, Point{X: float64(d), ResponseTime: est.Response.Seconds()})
	}
	if err := store.Decluster(alloc.Placement{}, nil); err != nil {
		return fig, err
	}
	if err := bf.Decluster(alloc.Placement{}, nil); err != nil {
		return fig, err
	}
	annotateSpeedup(&measured)
	annotateSpeedup(&modelled)
	fig.Series = append(fig.Series, measured, modelled)
	return fig, nil
}
