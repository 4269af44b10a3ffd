package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of a traced run. The recorder lives in the
// driver: spans wrap the calls the benchmark makes into each layer's
// public functions, not code inside the program.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"` // 0 = no parent
	Name     string           `json:"name"`
	Workload string           `json:"workload"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// maxOpSpans caps the per-operation children of one phase span; a
// cpu_mem phase completes tens of thousands of queries and the file
// should stay readable. The phase span's counts say how many were left out.
const maxOpSpans = 20000

// recorder keeps spans in memory and writes them out when the run ends.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

func (r *recorder) add(parent int, name string, start, end time.Time, counts map[string]int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Workload: r.workload,
		StartNs: start.Sub(r.t0).Nanoseconds(), EndNs: end.Sub(r.t0).Nanoseconds(), Counts: counts,
	})
	return id
}

// timed runs fn inside a span and returns how long it took.
func (r *recorder) timed(parent int, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.add(parent, name, start, end, nil)
	return end.Sub(start), err
}

// addPhase records one root span for a measured phase with one child per
// operation carrying that operation's counters.
func (r *recorder) addPhase(name string, m measured) {
	end := m.t0
	for _, s := range m.samples {
		if t := m.t0.Add(s.end); t.After(end) {
			end = t
		}
	}
	root := r.add(0, name, m.t0, end, nil)
	kept := 0
	for i, s := range m.samples {
		if kept == maxOpSpans {
			break
		}
		r.add(root, "query", m.t0.Add(s.start), m.t0.Add(s.end), m.counts[i].asMap(s.ok))
		kept++
	}
	for _, a := range m.appends {
		if kept == maxOpSpans {
			break
		}
		r.add(root, "append", m.t0.Add(a.start), m.t0.Add(a.end), map[string]int64{"ok": b2i(a.ok), "journal_bytes": a.journalB})
		kept++
	}
	r.mu.Lock()
	r.spans[root-1].Counts = map[string]int64{
		"ops":           int64(len(m.samples) + len(m.appends)),
		"spans_dropped": int64(len(m.samples) + len(m.appends) - kept),
	}
	r.mu.Unlock()
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// asMap renders the non-zero counters of one operation.
func (c opCounts) asMap(ok bool) map[string]int64 {
	out := map[string]int64{"ok": b2i(ok)}
	for k, v := range map[string]int64{
		"rows": c.Rows, "fact_ios": c.FactIOs, "bitmap_ios": c.BitmapIOs,
		"fact_pages": c.FactPages, "bitmap_pages": c.BitmapPages, "delta_rows": c.DeltaRows,
		"pool_hits": c.PoolHits, "pool_misses": c.PoolMisses,
		"batched": c.Batched, "reads_saved": c.ReadsSaved, "nodes": c.Nodes,
	} {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	err = enc.Encode(r.spans)
	r.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
