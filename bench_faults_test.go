package mdhf

// BenchmarkFaultTolerance prices the fault-tolerance stack on the
// serving workload the cache benchmark established (warm buffer pool,
// skewed hot-quarter mix): it measures the fault-free throughput, then
// the throughput and equivalence of the same mix under a seeded 2%
// transient-fault + corrupt-page plan. The measured numbers are written
// to BENCH_faults.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"
)

// faultBenchReport is the schema of BENCH_faults.json.
type faultBenchReport struct {
	Benchmark    string  `json:"benchmark"`
	BaseRows     int     `json:"base_rows"`
	IODelayUs    int64   `json:"io_delay_us"`
	PoolBytes    int64   `json:"pool_bytes"`
	ExecsPerPass int     `json:"execs_per_pass"`
	HotFraction  float64 `json:"hot_fraction"`

	// VerifyOnQPS is the fault-free throughput (page checksums are
	// verified on every physical read, as always).
	VerifyOnQPS float64 `json:"verify_on_qps"`

	FaultReadErrorRate float64 `json:"fault_read_error_rate"`
	FaultCorruptRate   float64 `json:"fault_corrupt_rate"`
	FaultedQPS         float64 `json:"faulted_qps"`
	FaultedSlowdownPct float64 `json:"faulted_slowdown_pct"`
	InjectedFaults     int64   `json:"injected_faults"`
	Retries            int64   `json:"retries"`
	ChecksumFailures   int64   `json:"checksum_failures"`
}

func BenchmarkFaultTolerance(b *testing.B) {
	ctx := context.Background()
	star := APB1Scaled(60)
	tab, err := GenerateData(star, 2)
	if err != nil {
		b.Fatal(err)
	}
	const (
		ioDelay   = 100 * time.Microsecond
		poolBytes = 64 << 20
		execs     = 120
		hotFrac   = 0.8
		seed      = 23
		errRate   = 0.02
		corRate   = 0.02
	)
	wl := newCacheBenchWorkload(b, star)
	seqn := wl.sequence(seed, execs, hotFrac)
	baseOpts := []Option{WithWorkers(8), WithDisks(4, RoundRobin), WithIODelay(ioDelay),
		WithBufferPool(poolBytes)}
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: tab}

	open := func(extra ...Option) *Warehouse {
		w, err := Open(ctx, cfg, append(append([]Option{}, baseOpts...), extra...)...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		})
		if _, _, err := w.Query(seqn[0]).Execute(ctx); err != nil { // build outside timing
			b.Fatal(err)
		}
		return w
	}
	pass := func(w *Warehouse, want []Result) (float64, []Result) {
		recording := want == nil
		start := time.Now()
		for i, q := range seqn {
			res, _, err := w.Query(q).Execute(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if recording {
				want = append(want, res)
			} else if !reflect.DeepEqual(res, want[i]) {
				b.Fatalf("execution %d diverged from the fault-free baseline", i)
			}
		}
		return float64(execs) / time.Since(start).Seconds(), want
	}
	// bestOf damps scheduler noise: the fastest of three warm passes.
	bestOf := func(w *Warehouse, want []Result) (float64, []Result) {
		var best float64
		for i := 0; i < 3; i++ {
			qps, got := pass(w, want)
			want = got
			if qps > best {
				best = qps
			}
		}
		return best, want
	}

	report := faultBenchReport{
		Benchmark: "BenchmarkFaultTolerance", BaseRows: tab.N(),
		IODelayUs: ioDelay.Microseconds(), PoolBytes: poolBytes,
		ExecsPerPass: execs, HotFraction: hotFrac,
		FaultReadErrorRate: errRate, FaultCorruptRate: corRate,
	}
	var baseline []Result

	b.Run("healthy", func(b *testing.B) {
		w := open()
		for i := 0; i < b.N; i++ {
			pass(w, nil) // warm the pool outside timing
			report.VerifyOnQPS, baseline = bestOf(w, nil)
		}
		b.ReportMetric(report.VerifyOnQPS, "q/s")
	})

	b.Run("faulted", func(b *testing.B) {
		w := open(WithFaultPlan(FaultPlan{Seed: 42, ReadErrorRate: errRate, CorruptRate: corRate}),
			WithRetryPolicy(fastFaultRetry()))
		for i := 0; i < b.N; i++ {
			pass(w, baseline) // warm + equivalence
			report.FaultedQPS, _ = bestOf(w, baseline)
		}
		if report.VerifyOnQPS > 0 {
			report.FaultedSlowdownPct = 100 * (1 - report.FaultedQPS/report.VerifyOnQPS)
		}
		st := w.ServingStats()
		report.InjectedFaults = st.Faults.InjectedFaults
		report.Retries = st.Faults.Retries
		report.ChecksumFailures = st.Faults.ChecksumFailures
		b.ReportMetric(report.FaultedQPS, "q/s")
		if report.InjectedFaults == 0 {
			b.Fatal("fault plan injected nothing — the faulted pass measured a healthy disk set")
		}
	})

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_faults.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	fmt.Printf("BENCH_faults.json: fault-free %.0f q/s; 2%%+2%% faults %.0f q/s (%.1f%% slower, %d injected, %d retries)\n",
		report.VerifyOnQPS, report.FaultedQPS, report.FaultedSlowdownPct, report.InjectedFaults, report.Retries)
}
