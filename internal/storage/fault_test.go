package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/frag"
	"repro/internal/schema"
)

// fastRetry is a test retry policy with negligible backoff so fault
// tests run in microseconds.
func fastRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:      6,
		BaseBackoff:      time.Microsecond,
		MaxBackoff:       10 * time.Microsecond,
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
	}
}

// declusterStore builds the tiny store and shards it over d disks.
func declusterStore(t *testing.T, d int) (*schema.Star, *Store, *BitmapFile, *DiskSet) {
	t.Helper()
	s, _, store, bf := buildStore(t, "time::month, product::group")
	ds, err := Decluster(store, bf, alloc.Placement{Disks: d, Scheme: alloc.RoundRobin, Staggered: true})
	if err != nil {
		t.Fatal(err)
	}
	ds.SetRetryPolicy(fastRetry())
	return s, store, bf, ds
}

// readAllFragments reads every page of every fragment and returns the
// concatenated bytes.
func readAllFragments(t *testing.T, store *Store) []byte {
	t.Helper()
	var out []byte
	var buf []byte
	for _, id := range store.Fragments() {
		loc, ok := store.Loc(id)
		if !ok {
			t.Fatalf("fragment %d has no location", id)
		}
		var err error
		buf, err = store.ReadPagesInto(buf, id, 0, int(loc.Pages))
		if err != nil {
			t.Fatalf("fragment %d: %v", id, err)
		}
		out = append(out, buf...)
	}
	return out
}

func TestRetriesClearTransientFaults(t *testing.T) {
	_, store, _, ds := declusterStore(t, 4)
	baseline := readAllFragments(t, store)

	ds.SetFaultPlan(&FaultPlan{Seed: 7, ReadErrorRate: 0.3})
	faulty := readAllFragments(t, store)
	if !bytes.Equal(baseline, faulty) {
		t.Fatal("reads under a transient fault plan are not byte-identical")
	}
	var injected, retries int64
	for _, st := range ds.Stats() {
		injected += st.InjectedFaults
		retries += st.Retries
	}
	if injected == 0 || retries == 0 {
		t.Fatalf("expected injected faults and retries, got injected=%d retries=%d", injected, retries)
	}
}

func TestChecksumsCatchInjectedCorruption(t *testing.T) {
	_, store, _, ds := declusterStore(t, 4)
	baseline := readAllFragments(t, store)

	ds.SetFaultPlan(&FaultPlan{Seed: 11, CorruptRate: 0.4})
	faulty := readAllFragments(t, store)
	if !bytes.Equal(baseline, faulty) {
		t.Fatal("reads under a corrupt-page plan are not byte-identical")
	}
	var fails int64
	for _, st := range ds.Stats() {
		fails += st.ChecksumFailures
	}
	if fails == 0 {
		t.Fatal("expected checksum failures under a 40% corrupt-page plan")
	}
}

func TestChecksumCatchesOnDiskCorruption(t *testing.T) {
	s := schema.Tiny()
	tab := data.MustGenerate(s, 21)
	spec := frag.MustParse(s, "time::month, product::group")
	dir := t.TempDir()
	store, err := Build(dir, tab, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id := store.Fragments()[0]
	if _, err := store.ReadPagesInto(nil, id, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Flip one byte of the fragment's first page in the fact file.
	loc, _ := store.Loc(id)
	off := loc.PageOff * int64(s.PageSize)
	f, err := os.OpenFile(filepath.Join(dir, factFileName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if _, err := f.ReadAt(one, off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xFF
	if _, err := f.WriteAt(one, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, err = store.ReadPagesInto(nil, id, 0, 1)
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("corrupted page read returned %v, want *FaultError", err)
	}
	if fe.Kind != FaultChecksum {
		t.Fatalf("fault kind = %s, want checksum", fe.Kind)
	}
	if fe.File != "fact" || fe.Frag != id {
		t.Fatalf("fault site = %s/%d, want fact/%d", fe.File, fe.Frag, id)
	}
}

func TestFailedDiskFailsFastAndRevives(t *testing.T) {
	_, store, _, ds := declusterStore(t, 4)
	// Pick a fragment on disk 2.
	var id int64 = -1
	for _, f := range store.Fragments() {
		if store.placement.FactDisk(f) == 2 {
			id = f
			break
		}
	}
	if id < 0 {
		t.Fatal("no fragment on disk 2")
	}
	ds.FailDisk(2)
	start := time.Now()
	_, err := store.ReadPagesInto(nil, id, 0, 1)
	elapsed := time.Since(start)
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("read on failed disk returned %v, want *FaultError", err)
	}
	if fe.Kind != FaultDiskFailed || fe.Disk != 2 {
		t.Fatalf("fault = kind %s disk %d, want disk-failed on 2", fe.Kind, fe.Disk)
	}
	if elapsed > time.Second {
		t.Fatalf("failed-disk read took %v, want fail-fast", elapsed)
	}
	// Other disks keep serving.
	for _, f := range store.Fragments() {
		if store.placement.FactDisk(f) != 2 {
			if _, err := store.ReadPagesInto(nil, f, 0, 1); err != nil {
				t.Fatalf("healthy disk read failed: %v", err)
			}
			break
		}
	}
	ds.ReviveDisk(2)
	if _, err := store.ReadPagesInto(nil, id, 0, 1); err != nil {
		t.Fatalf("revived disk read failed: %v", err)
	}
}

func TestBreakerOpensAfterExhaustedReadsAndRecovers(t *testing.T) {
	_, store, _, ds := declusterStore(t, 2)
	pol := fastRetry()
	pol.MaxAttempts = 2
	pol.BreakerThreshold = 2
	pol.BreakerCooldown = 10 * time.Millisecond
	ds.SetRetryPolicy(pol)
	ds.SetFaultPlan(&FaultPlan{Seed: 5, ReadErrorRate: 1.0})

	id := store.Fragments()[0]
	disk := store.placement.FactDisk(id)
	// Two exhausted reads (every attempt fails) open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := store.ReadPagesInto(nil, id, 0, 1); err == nil {
			t.Fatal("read under 100% fault rate succeeded")
		}
	}
	if trips := ds.Stats()[disk].BreakerTrips; trips != 1 {
		t.Fatalf("breaker trips = %d, want 1", trips)
	}
	// The open breaker fails the next read fast without touching the disk.
	before := ds.Stats()[disk].IOs
	_, err := store.ReadPagesInto(nil, id, 0, 1)
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != FaultBreakerOpen {
		t.Fatalf("read with open breaker returned %v, want breaker-open", err)
	}
	if after := ds.Stats()[disk].IOs; after != before {
		t.Fatalf("open breaker still touched the disk (%d -> %d IOs)", before, after)
	}
	// Heal the disk; after the cooldown a half-open probe closes the
	// breaker and reads succeed again.
	ds.SetFaultPlan(nil)
	time.Sleep(pol.BreakerCooldown + time.Millisecond)
	if _, err := store.ReadPagesInto(nil, id, 0, 1); err != nil {
		t.Fatalf("post-cooldown probe failed: %v", err)
	}
	if _, err := store.ReadPagesInto(nil, id, 0, 1); err != nil {
		t.Fatalf("read after breaker close failed: %v", err)
	}
}

// TestExecutorEquivalenceUnderFaults runs the Q1-Q4 class queries under a
// combined transient + corrupt + latency-spike plan and requires results
// identical to the fault-free run.
func TestExecutorEquivalenceUnderFaults(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		name := "materialized"
		build := buildStore
		if compressed {
			name, build = "compressed", buildCompressedStore
		}
		t.Run(name, func(t *testing.T) {
			s, _, store, bf := build(t, "time::month, product::group")
			ds, err := Decluster(store, bf, alloc.Placement{Disks: 4, Scheme: alloc.RoundRobin, Staggered: true})
			if err != nil {
				t.Fatal(err)
			}
			ds.SetRetryPolicy(fastRetry())
			ex := newTestExecutor(t, store, bf, 0)
			queries := classQueries(t, s, store.spec)

			type outcome struct {
				agg Aggregate
				st  IOStats
			}
			baseline := map[string]outcome{}
			for name, q := range queries {
				agg, st, err := execute(ex, q)
				if err != nil {
					t.Fatal(err)
				}
				baseline[name] = outcome{agg, st}
			}
			ds.SetFaultPlan(&FaultPlan{Seed: 42, ReadErrorRate: 0.05, CorruptRate: 0.05,
				LatencySpikeRate: 0.01, LatencySpike: 50 * time.Microsecond})
			for name, q := range queries {
				agg, st, err := execute(ex, q)
				if err != nil {
					t.Fatalf("%s under faults: %v", name, err)
				}
				if agg != baseline[name].agg {
					t.Fatalf("%s: aggregate under faults differs from fault-free run", name)
				}
				if st != baseline[name].st {
					t.Fatalf("%s: IOStats under faults %+v != fault-free %+v", name, st, baseline[name].st)
				}
			}
		})
	}
}
