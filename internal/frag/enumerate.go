package frag

import "repro/internal/schema"

// Enumerate returns every possible point fragmentation of the star schema:
// each non-empty subset of dimensions with one hierarchy level chosen per
// selected dimension. For the APB-1 schema this yields the 167 options of
// Table 2 (12 one-, 47 two-, 72 three- and 36 four-dimensional).
func Enumerate(star *schema.Star) []*Spec {
	var out []*Spec
	var attrs []Attr
	var rec func(dim int)
	rec = func(dim int) {
		if dim == len(star.Dims) {
			if len(attrs) > 0 {
				out = append(out, MustNew(star, append([]Attr(nil), attrs...)))
			}
			return
		}
		// Skip this dimension.
		rec(dim + 1)
		// Or fragment on one of its levels.
		for li := 0; li < star.Dims[dim].Depth(); li++ {
			attrs = append(attrs, Attr{Dim: dim, Level: li})
			rec(dim + 1)
			attrs = attrs[:len(attrs)-1]
		}
	}
	rec(0)
	return out
}

// Thresholds are the administrator limits of Section 4.7's first guideline.
type Thresholds struct {
	// MinBitmapFragPages is the minimal bitmap fragment size in pages
	// (threshold i). Zero disables the check.
	MinBitmapFragPages float64
	// MaxFragments is the maximal number of fragments to administer
	// (threshold ii). Zero disables the check.
	MaxFragments int64
	// MaxBitmaps is the maximal number of bitmaps to materialise
	// (threshold iii). Zero disables the check.
	MaxBitmaps int
	// MinFragments optionally requires at least this many fragments (the
	// paper: "there should be at least 1 fragment per fact table disk").
	MinFragments int64
}

// Admissible reports whether the spec passes all enabled thresholds given
// the index configuration (cfg may be nil if MaxBitmaps is zero).
func (t Thresholds) Admissible(s *Spec, cfg IndexConfig) bool {
	if t.MinBitmapFragPages > 0 && s.BitmapFragmentPages() < t.MinBitmapFragPages {
		return false
	}
	if t.MaxFragments > 0 && s.NumFragments() > t.MaxFragments {
		return false
	}
	if t.MinFragments > 0 && s.NumFragments() < t.MinFragments {
		return false
	}
	if t.MaxBitmaps > 0 && s.SurvivingBitmaps(cfg) > t.MaxBitmaps {
		return false
	}
	return true
}
