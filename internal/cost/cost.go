// Package cost implements the analytical I/O cost model of the MDHF study
// (Section 4.5 and the companion technical report [33], which is
// unavailable; the formulas are reconstructed from the paper's stated
// behaviour and calibrated against Tables 2, 3 and 6 — see EXPERIMENTS.md
// for residual deviations).
//
// The model assumes, as the paper does, a uniform distribution of query
// hits within each relevant fragment and page, and fragments stored
// consecutively on disk.
package cost

import (
	"fmt"
	"math"

	"repro/internal/frag"
	"repro/internal/schema"
)

// Params holds the I/O parameters of the cost model.
type Params struct {
	// FactPrefetch is the prefetch granule on fact fragments, in pages
	// (paper: 8).
	FactPrefetch int
	// BitmapPrefetch is the prefetch granule on bitmap fragments, in pages
	// (paper: 5).
	BitmapPrefetch int
}

// DefaultParams returns the paper's prefetch settings (Table 4).
func DefaultParams() Params {
	return Params{FactPrefetch: 8, BitmapPrefetch: 5}
}

// QueryCost is the estimated I/O work of one star query under a given
// fragmentation.
type QueryCost struct {
	// Class is the I/O overhead class (Section 4.5).
	Class frag.IOClass
	// Fragments is the number of fact fragments to process.
	Fragments int64
	// HitRows is the expected number of matching fact rows.
	HitRows float64
	// BitmapsPerFragment is the number of bitmap fragments read per fact
	// fragment (0 for IOC1).
	BitmapsPerFragment int

	// Groups is the expected number of non-empty groups of a grouped
	// query (1 without GROUP BY), under the uniformity assumption and
	// capped by the expected hit rows.
	Groups int64
	// GroupAligned reports the fragment-aligned grouping fast path: every
	// GROUP BY level at or above the fragmentation level of its
	// dimension, so the group key is constant per fragment and grouping
	// adds no per-row work. Grouping never adds I/O in either case — the
	// stored tuples already carry the dimension keys the fallback buckets
	// by — so the I/O counts below are grouping-independent.
	GroupAligned bool

	// FactPagesPerFragment is the expected number of fact pages read per
	// relevant fragment (prefetch-granule aligned).
	FactPagesPerFragment float64
	// FactPages is the total number of fact pages read.
	FactPages int64
	// FactIOs is the total number of fact I/O operations (each reading up
	// to FactPrefetch consecutive pages).
	FactIOs int64

	// BitmapPages is the total number of bitmap pages read.
	BitmapPages int64
	// BitmapIOs is the total number of bitmap I/O operations.
	BitmapIOs int64

	// TotalBytes is the total I/O volume.
	TotalBytes int64
}

// TotalMB returns the total I/O volume in binary megabytes.
func (c QueryCost) TotalMB() float64 { return float64(c.TotalBytes) / (1 << 20) }

// TotalIOs returns the total number of I/O operations.
func (c QueryCost) TotalIOs() int64 { return c.FactIOs + c.BitmapIOs }

// BitmapFragPagesStored returns the page count a bitmap fragment occupies
// on disk: the ceiling of its fractional size, at least one page.
func BitmapFragPagesStored(spec *frag.Spec) int64 {
	p := int64(math.Ceil(spec.BitmapFragmentPages()))
	if p < 1 {
		p = 1
	}
	return p
}

// Estimate computes the I/O cost of query q under fragmentation spec with
// index configuration cfg, for the paper's layout: every bitmap fragment
// a subquery reads is an allocation unit of its own.
func Estimate(spec *frag.Spec, cfg frag.IndexConfig, q frag.Query, p Params) QueryCost {
	return estimate(spec, cfg, q, p, spec.BitmapsReadForQuery(cfg, q))
}

// nominalBitmapBytes is the size of one uncompressed bitmap fragment: one
// bit per row of an average fragment.
func nominalBitmapBytes(spec *frag.Spec) int { return int(math.Ceil(spec.FragmentRows() / 8)) }

// BitmapUnits returns the allocation units one subquery of q reads from a
// store that packs each fact fragment's bitmap fragments by
// frag.PackBitmapUnits — storage.BitmapFile's layout — as the unit index
// of every distinct unit the query's bitmap plan touches. The packing
// runs on the nominal fragment size, ceil(FragmentRows/8) bytes, so at a
// page or more per bitmap fragment (the paper's regime) the units are the
// stored indices of the bitmaps read, one each; below a page several
// bitmap fragments share a unit and the list is shorter than the plan. A
// query that cannot be planned (callers validate first) reads none.
func BitmapUnits(spec *frag.Spec, cfg frag.IndexConfig, q frag.Query) []int {
	ix, err := frag.NewDeltaIndex(spec, cfg)
	if err != nil {
		return nil
	}
	plan, err := ix.Plan(nil, q)
	if err != nil {
		return nil
	}
	sizes := make([]int, ix.NumBitmaps())
	for i := range sizes {
		sizes[i] = nominalBitmapBytes(spec)
	}
	slots := frag.PackBitmapUnits(nil, sizes, spec.Star().PageSize)
	var units []int
	for _, op := range plan {
		if u := int(slots[op.Index].Unit); len(units) == 0 || units[len(units)-1] != u {
			units = append(units, u)
		}
	}
	return units
}

// BitmapFragNote is Explain's plain-words note on a fragmentation that
// breaks threshold (i) of Section 4.7 — bitmap fragments smaller than the
// page they are read in — given the query's cost under the layout packed
// names. It is empty at a page or more per bitmap fragment.
func BitmapFragNote(spec *frag.Spec, cfg frag.IndexConfig, c QueryCost, packed bool) string {
	bf := spec.BitmapFragmentPages()
	if bf >= 1 {
		return ""
	}
	var units int64
	if c.Fragments > 0 {
		units = c.BitmapIOs / c.Fragments
	}
	layout := "each is padded to a page of its own"
	if packed {
		share := spec.Star().PageSize / nominalBitmapBytes(spec)
		if n := spec.SurvivingBitmaps(cfg); share > n {
			share = n
		}
		layout = fmt.Sprintf("%d of them share one allocation unit", share)
	}
	return fmt.Sprintf("bitmap fragments are %.2f pages, under the one-page minimum of threshold (i) (Section 4.7): %s, "+
		"so a subquery reads %d unit(s) for its %d bitmap fragment(s); "+
		"Advise with Thresholds.MinBitmapFragPages: 1 would have rejected this fragmentation",
		bf, layout, units, c.BitmapsPerFragment)
}

// estimate is Estimate with the number of bitmap allocation units one
// subquery reads given: the number of bitmap fragments under the paper's
// layout, BitmapUnits under the packed one.
func estimate(spec *frag.Spec, cfg frag.IndexConfig, q frag.Query, p Params, unitsPerFragment int) QueryCost {
	star := spec.Star()
	out := QueryCost{
		Class:              spec.IOClassOf(q),
		Fragments:          spec.RelevantCount(q),
		HitRows:            q.Hits(star),
		BitmapsPerFragment: spec.BitmapsReadForQuery(cfg, q),
		Groups:             estimateGroups(star, q),
		GroupAligned:       spec.GroupAligned(q),
	}

	tpp := float64(star.FactTuplesPerPage())
	fragPages := math.Ceil(spec.FragmentRows() / tpp)
	g := float64(p.FactPrefetch)
	granules := math.Ceil(fragPages / g)

	if out.BitmapsPerFragment == 0 {
		// IOC1: clustered hits, whole fragments are relevant — every page of
		// every relevant fragment is read with full prefetch efficiency.
		out.FactPagesPerFragment = fragPages
		out.FactPages = out.Fragments * int64(fragPages)
		out.FactIOs = out.Fragments * int64(granules)
	} else {
		// IOC2: hits are spread; a prefetch granule is read iff it contains
		// at least one hit. With per-tuple hit probability s, a granule of
		// g*tpp tuples is hit with probability 1-(1-s)^(g*tpp).
		s := spec.FragmentSelectivity(q)
		pGranule := 1 - math.Pow(1-s, g*tpp)
		touched := granules * pGranule
		if hits := s * spec.FragmentRows(); touched < 1 && hits > 0 {
			touched = 1 // at least one granule per fragment with any hit
		}
		pages := touched * g
		if pages > fragPages {
			pages = fragPages
		}
		out.FactPagesPerFragment = pages
		out.FactPages = int64(math.Round(float64(out.Fragments) * pages))
		out.FactIOs = int64(math.Ceil(float64(out.Fragments) * touched))

		// Bitmap I/O: each required allocation unit is read in full. A
		// unit of ceil(BF) pages costs ceil(ceil(BF)/prefetch) I/Os.
		bfPages := BitmapFragPagesStored(spec)
		bIOs := (bfPages + int64(p.BitmapPrefetch) - 1) / int64(p.BitmapPrefetch)
		out.BitmapPages = out.Fragments * int64(unitsPerFragment) * bfPages
		out.BitmapIOs = out.Fragments * int64(unitsPerFragment) * bIOs
	}

	out.TotalBytes = (out.FactPages + out.BitmapPages) * int64(star.PageSize)
	return out
}

// estimateGroups returns the expected number of non-empty groups under
// uniformity. Within one dimension only the finest GROUP BY level counts
// — coarser levels are functionally determined by it (each month lies in
// exactly one quarter), so they multiply the key space but not the
// number of non-empty groups. Per dimension: a predicate at a
// finer-or-equal level than that finest GroupBy level pins one group
// member, a coarser predicate leaves its fan-out many descendants, no
// predicate leaves the full level domain. The product across dimensions
// is capped by the expected hit rows (a group needs at least one row).
func estimateGroups(star *schema.Star, q frag.Query) int64 {
	finest := make(map[int]int, len(q.GroupBy)) // dim -> finest GroupBy level
	for _, ref := range q.GroupBy {
		if l, ok := finest[ref.Dim]; !ok || ref.Level > l {
			finest[ref.Dim] = ref.Level
		}
	}
	groups := int64(1)
	for dim, level := range finest {
		d := &star.Dims[dim]
		members := int64(d.Levels[level].Card)
		if p, ok := q.PredOnDim(dim); ok {
			if p.Level >= level {
				members = 1 // the predicate's ancestor is the only group
			} else {
				members = int64(d.FanOutBetween(p.Level, level))
			}
		}
		groups *= members
	}
	if hits := int64(math.Ceil(q.Hits(star))); groups > hits {
		groups = hits
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}

// WeightedQuery is one entry of a query mix.
type WeightedQuery struct {
	Name   string
	Query  frag.Query
	Weight float64
}
