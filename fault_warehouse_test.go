package mdhf

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// fastFaultRetry keeps backoff negligible so fault tests run fast.
func fastFaultRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:      6,
		BaseBackoff:      time.Microsecond,
		MaxBackoff:       10 * time.Microsecond,
		BreakerThreshold: 4,
		BreakerCooldown:  20 * time.Millisecond,
	}
}

// TestWarehouseFaultEquivalence is the ISSUE's acceptance matrix: under a
// seeded 2% transient + 2% corrupt-page + latency-spike plan, every query
// class returns results byte-identical to a fault-free warehouse over the
// same table, on single-disk and declustered backends, materialized and
// compressed.
func TestWarehouseFaultEquivalence(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	tab := MustGenerateData(star, 8)
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: tab}
	plan := FaultPlan{
		Seed:             42,
		ReadErrorRate:    0.02,
		CorruptRate:      0.02,
		LatencySpikeRate: 0.01,
		LatencySpike:     50 * time.Microsecond,
	}
	backends := []struct {
		name string
		opts []Option
	}{
		{"on-disk", []Option{WithOnDisk("")}},
		{"on-disk/compressed", []Option{WithOnDisk(""), WithCompression()}},
		{"declustered", []Option{WithDisks(4, RoundRobin)}},
		{"declustered/compressed", []Option{WithDisks(8, GapRoundRobin), WithCompression()}},
	}
	var injected, retries int64
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			oracle, err := Open(ctx, cfg, bk.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()
			faulty, err := Open(ctx, cfg, append([]Option{
				WithFaultPlan(plan), WithRetryPolicy(fastFaultRetry()),
			}, bk.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer faulty.Close()
			for _, text := range ingestQueries {
				q, err := ParseQuery(star, text)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := oracle.Query(q).Execute(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := faulty.Query(q).Execute(ctx)
				if err != nil {
					t.Fatalf("%q under faults: %v", text, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%q: result under faults %+v != fault-free %+v", text, got, want)
				}
			}
			st := faulty.ServingStats()
			var disks FaultStats
			for _, d := range faulty.DiskStats() {
				disks.InjectedFaults += d.InjectedFaults
				disks.Retries += d.Retries
				disks.ChecksumFailures += d.ChecksumFailures
				disks.BreakerTrips += d.BreakerTrips
			}
			if st.Faults != disks {
				t.Errorf("ServingStats.Faults %+v, the disk set's fault counters %+v", st.Faults, disks)
			}
			injected += st.Faults.InjectedFaults
			retries += st.Faults.Retries
		})
	}
	// With a seeded plan over hundreds of physical reads the run must
	// actually have exercised the retry path, not merely avoided faults.
	if injected == 0 || retries == 0 {
		t.Fatalf("fault plan never fired: injected=%d retries=%d", injected, retries)
	}
}

// TestWarehouseDiskFailureFailsFast permanently fails one disk of a
// declustered warehouse: queries touching it must fail promptly with a
// typed *FaultError (no hang, no panic), healthy serving resumes after
// the disk is revived, and results match the pre-failure run.
func TestWarehouseDiskFailureFailsFast(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: MustGenerateData(star, 8)}
	w, err := Open(ctx, cfg, WithDisks(4, RoundRobin), WithRetryPolicy(fastFaultRetry()))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	q, err := ParseQuery(star, "") // full scan touches every disk
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := w.Query(q).Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}

	w.DiskSet().FailDisk(1)
	start := time.Now()
	_, _, err = w.Query(q).Execute(ctx)
	elapsed := time.Since(start)
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("query on failed disk returned %v, want *FaultError", err)
	}
	if fe.Kind != FaultDiskFailed || fe.Disk != 1 {
		t.Fatalf("fault = kind %s disk %d, want disk-failed on disk 1", fe.Kind, fe.Disk)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("failed-disk query took %v, want fail-fast", elapsed)
	}

	w.DiskSet().ReviveDisk(1)
	got, _, err := w.Query(q).Execute(ctx)
	if err != nil {
		t.Fatalf("query after revive: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result after revive %+v != pre-failure %+v", got, want)
	}
}

// TestWarehouseLoadShedding bounds admission at one in-flight query and
// verifies a concurrent execution is refused with ErrOverloaded while the
// slot is held, with the shed counted in ServingStats.
func TestWarehouseLoadShedding(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: MustGenerateData(star, 8)}
	w, err := Open(ctx, cfg, WithOnDisk(""), WithAdmissionLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	q, err := ParseQuery(star, "")
	if err != nil {
		t.Fatal(err)
	}
	// Warm build (fast), then make every physical access slow so the held
	// admission slot stays occupied while the second query arrives.
	if _, _, err := w.Query(q).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	w.SetIODelay(50 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		_, _, err := w.Query(q).Execute(ctx)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for w.ServingStats().InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first query never entered execution")
		}
		time.Sleep(100 * time.Microsecond)
	}
	_, _, err = w.Query(q).Execute(ctx)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second query returned %v, want ErrOverloaded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("admitted query failed: %v", err)
	}
	st := w.ServingStats()
	if st.Shed < 1 || st.AdmitLimit != 1 {
		t.Fatalf("serving stats = shed %d limit %d, want >=1 shed at limit 1", st.Shed, st.AdmitLimit)
	}
}

// TestWarehouseQueryDeadline bounds every execution with a per-query
// deadline: a scan stuck behind slow disks fails with DeadlineExceeded
// instead of hanging its caller.
func TestWarehouseQueryDeadline(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: MustGenerateData(star, 8)}
	w, err := Open(ctx, cfg, WithOnDisk(""), WithQueryDeadline(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	q, err := ParseQuery(star, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Query(q).Execute(ctx); err != nil {
		t.Fatal(err) // warm build finishes well inside the deadline
	}
	w.SetIODelay(50 * time.Millisecond)
	_, _, err = w.Query(q).Execute(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow query returned %v, want DeadlineExceeded", err)
	}
}

// TestWarehouseCancelMidScan is the ctx-cancellation regression: on a
// deliberately slow disk, cancelling the context shortly after Execute
// starts must abort the scan with ctx.Err() instead of finishing it.
func TestWarehouseCancelMidScan(t *testing.T) {
	star := TinySchema()
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: MustGenerateData(star, 8)}
	w, err := Open(context.Background(), cfg, WithOnDisk(""))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	q, err := ParseQuery(star, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Query(q).Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	w.SetIODelay(100 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := w.Query(q).Execute(ctx)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled query returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query did not return")
	}
	if lag := time.Since(start); lag > 5*time.Second {
		t.Fatalf("query returned %v after cancel, want prompt abort", lag)
	}
}

// TestWarehouseJournalCrashRecovery kills a warehouse without Close after
// several acked Appends and reopens the same directory: the journal
// replay must reconstruct every acked row, and every query must answer
// byte-identically to both the pre-crash warehouse and a fresh oracle
// built over base+appended rows.
func TestWarehouseJournalCrashRecovery(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	full := MustGenerateData(star, 8)
	n := full.N()
	base := prefixTable(full, n/2)
	extra := splitRows(full, n/2, n)
	dir := t.TempDir()
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: base}

	w1, err := Open(ctx, cfg, WithOnDisk(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Several batches so tail coalescing produces replace-flagged journal
	// records alongside plain appends.
	per := (len(extra) + 2) / 3
	for lo := 0; lo < len(extra); lo += per {
		hi := lo + per
		if hi > len(extra) {
			hi = len(extra)
		}
		if err := w1.Append(ctx, extra[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	preCrash := map[string]Result{}
	for _, text := range ingestQueries {
		q, err := ParseQuery(star, text)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := w1.Query(q).Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		preCrash[text] = res
	}
	// "Crash": w1 is abandoned without Close — only what the journal
	// durably holds may survive.

	w2, err := Open(ctx, cfg, WithOnDisk(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	oracle, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group",
		Table: withRows(base, extra)})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	for _, text := range ingestQueries {
		q, err := ParseQuery(star, text)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := w2.Query(q).Execute(ctx)
		if err != nil {
			t.Fatalf("%q after recovery: %v", text, err)
		}
		if !reflect.DeepEqual(got, preCrash[text]) {
			t.Errorf("%q: recovered %+v != pre-crash %+v", text, got, preCrash[text])
		}
		want, _, err := oracle.Query(q).Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: recovered %+v != oracle %+v", text, got, want)
		}
	}
	if st := w2.ServingStats(); st.DeltaRows != int64(len(extra)) {
		t.Fatalf("recovered delta rows = %d, want %d", st.DeltaRows, len(extra))
	}
	// Ingestion continues seamlessly on the recovered journal.
	again := splitRows(full, 0, n/8)
	if err := w2.Append(ctx, again); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if st := w2.ServingStats(); st.DeltaRows != int64(len(extra)+len(again)) {
		t.Fatalf("delta rows after post-recovery append = %d, want %d", st.DeltaRows, len(extra)+len(again))
	}
}

// TestExplainModelsDegradedDisks: under a fault plan the analytical
// response estimate must grow by the expected-retries factor relative to
// the fault-free model.
func TestExplainModelsDegradedDisks(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: MustGenerateData(star, 8)}
	clean, err := Open(ctx, cfg, WithDisks(4, RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	degraded, err := Open(ctx, cfg, WithDisks(4, RoundRobin),
		WithFaultPlan(FaultPlan{Seed: 1, ReadErrorRate: 0.25, CorruptRate: 0.25}))
	if err != nil {
		t.Fatal(err)
	}
	defer degraded.Close()
	q, err := ParseQuery(star, "time::quarter=1")
	if err != nil {
		t.Fatal(err)
	}
	base, err := clean.Query(q).Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := degraded.Query(q).Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Response.Response <= base.Response.Response {
		t.Fatalf("degraded response %v not above fault-free %v",
			slow.Response.Response, base.Response.Response)
	}
	// 50% combined fault rate doubles expected attempts: the bottleneck
	// queue should scale by ~2x.
	if got, want := slow.Response.BottleneckIOs, 2*base.Response.BottleneckIOs; got < 0.99*want || got > 1.01*want {
		t.Fatalf("degraded bottleneck IOs = %v, want ~%v", got, want)
	}
}
