package mdhf

import (
	"testing"

	"repro/internal/frag"
	"repro/internal/kernel"
)

// rcSpec builds the standard test fragmentation and parses helper queries
// directly against the internal frag package (the cache stores their
// Relevant regions).
func rcSpec(t *testing.T) (*frag.Spec, func(string) (string, frag.Region)) {
	t.Helper()
	star := TinySchema()
	spec, err := frag.Parse(star, "time::month, product::group")
	if err != nil {
		t.Fatal(err)
	}
	return spec, func(text string) (string, frag.Region) {
		q, err := frag.ParseQuery(star, text)
		if err != nil {
			t.Fatal(err)
		}
		return frag.Format(star, q), spec.Relevant(q)
	}
}

func rcResult(units int64) Result {
	return Result{
		Aggregate: kernel.Aggregate{Count: 1, UnitsSold: units},
		Groups:    []kernel.Row{{Members: []int{int(units)}, Agg: kernel.Aggregate{UnitsSold: units}}},
	}
}

func TestResCacheGetValidatesState(t *testing.T) {
	_, mk := rcSpec(t)
	text, region := mk("time::month=1")
	c := newResCache(4)
	c.put(text, 0, 5, region, rcResult(10), 2)
	if e := c.get(text, 0, 5); e == nil || e.deltaRows != 2 {
		t.Fatal("valid-state lookup missed")
	}
	if e := c.get(text, 1, 5); e != nil {
		t.Fatal("hit across epochs")
	}
	if e := c.get(text, 0, 6); e != nil {
		t.Fatal("hit across delta sequences")
	}
	if e := c.get("other", 0, 5); e != nil {
		t.Fatal("hit on absent text")
	}
}

func TestResCacheLRUCapacity(t *testing.T) {
	_, mk := rcSpec(t)
	texts := []string{"time::month=1", "time::month=2", "time::month=3"}
	c := newResCache(2)
	var regions []frag.Region
	var keys []string
	for _, q := range texts {
		text, region := mk(q)
		keys = append(keys, text)
		regions = append(regions, region)
	}
	c.put(keys[0], 0, 0, regions[0], rcResult(1), 0)
	c.put(keys[1], 0, 0, regions[1], rcResult(2), 0)
	// Refresh keys[0] so keys[1] is the LRU victim.
	if c.get(keys[0], 0, 0) == nil {
		t.Fatal("refresh miss")
	}
	c.put(keys[2], 0, 0, regions[2], rcResult(3), 0)
	if c.get(keys[1], 0, 0) != nil {
		t.Fatal("LRU entry survived capacity eviction")
	}
	if c.get(keys[0], 0, 0) == nil || c.get(keys[2], 0, 0) == nil {
		t.Fatal("recently used entries evicted")
	}
	if len(c.entries) != 2 {
		t.Fatalf("entries %d, want 2", len(c.entries))
	}
	// Overwriting an existing key must not grow the cache.
	c.put(keys[2], 0, 1, regions[2], rcResult(4), 0)
	if len(c.entries) != 2 {
		t.Fatalf("entries after overwrite %d, want 2", len(c.entries))
	}
	if e := c.get(keys[2], 0, 1); e == nil || e.res.UnitsSold != 4 {
		t.Fatal("overwrite did not replace the entry")
	}
}

// TestResCacheInvalidateFragmentGranular is the core append rule: only
// entries whose confinement region contains a touched fragment are
// evicted; everything else is re-keyed to the new MaxSeq and keeps
// hitting.
func TestResCacheInvalidateFragmentGranular(t *testing.T) {
	spec, mk := rcSpec(t)
	m1, rm1 := mk("time::month=1")
	m2, rm2 := mk("time::month=2")
	all, rall := mk("") // full scan: every fragment is relevant

	// A fragment inside month 1's slice (and the full scan), outside
	// month 2's.
	var touched int64 = -1
	for id := int64(0); id < spec.NumFragments(); id++ {
		coord := spec.Coord(id)
		if regionTouches(rm1, [][]int{coord}) && !regionTouches(rm2, [][]int{coord}) {
			touched = id
			break
		}
	}
	if touched < 0 {
		t.Fatal("no fragment separates month 1 from month 2")
	}

	c := newResCache(8)
	c.put(m1, 0, 5, rm1, rcResult(1), 0)
	c.put(m2, 0, 5, rm2, rcResult(2), 0)
	c.put(all, 0, 5, rall, rcResult(3), 0)
	c.invalidate(spec, []int64{touched}, 9)

	if c.get(m1, 0, 9) != nil {
		t.Fatal("touched entry survived the append")
	}
	if c.get(all, 0, 9) != nil {
		t.Fatal("full-scan entry survived an append")
	}
	e := c.get(m2, 0, 9)
	if e == nil {
		t.Fatal("untouched entry was not re-keyed to the new MaxSeq")
	}
	if e.res.UnitsSold != 2 {
		t.Fatal("re-keyed entry result changed")
	}
	if c.get(m2, 0, 5) != nil {
		t.Fatal("untouched entry still valid under the old MaxSeq")
	}
	if c.st.Invalidations != 2 || c.st.Rekeys == 0 {
		t.Fatalf("counters: invalidations %d (want 2), rekeys %d (want >0)", c.st.Invalidations, c.st.Rekeys)
	}
}

func TestResCacheInvalidatePoisonsPending(t *testing.T) {
	spec, mk := rcSpec(t)
	m1, rm1 := mk("time::month=1")
	m2, rm2 := mk("time::month=2")
	var touched int64 = -1
	for id := int64(0); id < spec.NumFragments(); id++ {
		coord := spec.Coord(id)
		if regionTouches(rm1, [][]int{coord}) && !regionTouches(rm2, [][]int{coord}) {
			touched = id
			break
		}
	}
	c := newResCache(8)
	pd1 := &resPending{text: m1, epoch: 0, maxSeq: 5, region: rm1, done: make(chan struct{})}
	pd2 := &resPending{text: m2, epoch: 0, maxSeq: 5, region: rm2, done: make(chan struct{})}
	c.pending[m1] = pd1
	c.pending[m2] = pd2
	c.invalidate(spec, []int64{touched}, 9)
	if !pd1.poisoned {
		t.Fatal("intersecting pending computation not poisoned")
	}
	if pd2.poisoned {
		t.Fatal("disjoint pending computation poisoned")
	}
	if pd2.maxSeq != 9 {
		t.Fatalf("disjoint pending maxSeq %d, want re-keyed to 9", pd2.maxSeq)
	}
	if pd1.maxSeq != 5 {
		t.Fatalf("poisoned pending maxSeq %d, want frozen at 5", pd1.maxSeq)
	}
}

// TestResCacheRekeyAll is the compaction rule: result-neutral, so every
// entry and non-poisoned pending carries over to the new epoch's state.
func TestResCacheRekeyAll(t *testing.T) {
	_, mk := rcSpec(t)
	m1, rm1 := mk("time::month=1")
	m2, rm2 := mk("time::month=2")
	c := newResCache(8)
	c.put(m1, 0, 5, rm1, rcResult(1), 5)
	pdLive := &resPending{text: m2, epoch: 0, maxSeq: 5, region: rm2, done: make(chan struct{})}
	pdDead := &resPending{text: "x", epoch: 0, maxSeq: 5, poisoned: true, done: make(chan struct{})}
	c.pending[m2] = pdLive
	c.pending["x"] = pdDead
	c.rekeyAll(1, 0)
	if c.get(m1, 0, 5) != nil {
		t.Fatal("entry still valid under retired epoch")
	}
	if c.get(m1, 1, 0) == nil {
		t.Fatal("entry not carried to the new epoch")
	}
	if pdLive.epoch != 1 || pdLive.maxSeq != 0 {
		t.Fatalf("live pending not re-keyed: epoch %d maxSeq %d", pdLive.epoch, pdLive.maxSeq)
	}
	if pdDead.epoch != 0 {
		t.Fatal("poisoned pending re-keyed")
	}
}

// TestCopyResultIsolation guards the deep copy: cache residents must not
// alias caller-visible slices.
func TestCopyResultIsolation(t *testing.T) {
	orig := rcResult(7)
	cp := copyResult(orig)
	cp.Groups[0].Members[0] = 99
	cp.Groups[0].Agg.UnitsSold = 99
	if orig.Groups[0].Members[0] != 7 {
		t.Fatal("copy aliases Members")
	}
	if orig.Groups[0].Agg.UnitsSold != 7 {
		t.Fatal("copy aliases Groups")
	}
	if n := copyResult(Result{}); n.Groups != nil {
		t.Fatal("nil groups grew a slice")
	}
}
