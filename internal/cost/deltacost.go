package cost

import (
	"math"

	"repro/internal/frag"
)

// DeltaState summarises a warehouse's appended-but-not-yet-compacted
// data: how many fragments hold delta segments, how many segments exist,
// and the total delta row count. The serving layer snapshots it from the
// pinned delta set at Explain time.
type DeltaState struct {
	// Fragments is the number of distinct fragments holding deltas.
	Fragments int
	// Segments is the total number of sealed delta segments.
	Segments int
	// Rows is the total number of delta rows.
	Rows int64
}

// DeltaCost is the estimated extra work a query pays for reading the
// delta segments on top of its base-fragment cost: delta rows live in
// sealed in-memory segments, so the overhead is per-row work (a leaf
// range test and the aggregation), not page I/O. Bytes reports
// the tuple-equivalent volume scanned, for comparison against the base
// QueryCost.TotalBytes.
type DeltaCost struct {
	// Segments is the expected number of delta segments visited.
	Segments int64
	// Rows is the expected number of delta rows aggregated.
	Rows int64
	// Bytes is the tuple-equivalent volume of those rows (rows times the
	// on-disk tuple size), the delta analogue of QueryCost.TotalBytes.
	Bytes int64
}

// EstimateDelta estimates the delta-read overhead of query q: fragment
// confinement applies to delta segments exactly as to base fragments
// (segments are fragment-aligned), so only the relevant fraction of the
// delta state is visited. Under the model's uniformity assumption the
// segments and rows spread evenly over the fragments that hold them.
func EstimateDelta(spec *frag.Spec, q frag.Query, d DeltaState) DeltaCost {
	if d.Rows == 0 || d.Segments == 0 {
		return DeltaCost{}
	}
	total := float64(spec.NumFragments())
	relevant := float64(spec.RelevantCount(q))
	fraction := 1.0
	if total > 0 && relevant < total {
		fraction = relevant / total
	}
	out := DeltaCost{
		Segments: int64(math.Ceil(float64(d.Segments) * fraction)),
		Rows:     int64(math.Ceil(float64(d.Rows) * fraction)),
	}
	star := spec.Star()
	tupleSize := int64(2*len(star.Dims) + 12)
	out.Bytes = out.Rows * tupleSize
	return out
}
