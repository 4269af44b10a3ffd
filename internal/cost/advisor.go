package cost

import (
	"context"
	"sort"

	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/schema"
)

// Ranked is one fragmentation candidate with its estimated total work.
type Ranked struct {
	Spec *frag.Spec
	// Work is the weighted total I/O bytes over the query mix.
	Work float64
	// Bitmaps is the number of bitmaps that must be materialised.
	Bitmaps int
	// Fragments is the number of fact fragments.
	Fragments int64
	// BitmapFragPages is the (fractional) bitmap fragment size in pages.
	BitmapFragPages float64
	// PerQuery holds the per-mix-entry costs, aligned with the mix.
	PerQuery []QueryCost
}

// Advise implements the data allocation guidelines of Section 4.7:
//
//  1. exclude all fragmentations breaking a threshold (minimal bitmap
//     fragment size, maximal fragment count, maximal bitmap count,
//     and at least one fragment per disk);
//  2. analyze the I/O load of the remaining candidates over the query mix;
//  3. rank by minimal total I/O work.
//
// It returns all admissible candidates, best first. The candidate
// analysis runs on one worker per available CPU; see AdviseParallel for
// an explicit worker count.
func Advise(star *schema.Star, cfg frag.IndexConfig, mix []WeightedQuery, th frag.Thresholds, p Params) []Ranked {
	return AdviseParallel(star, cfg, mix, th, p, 0)
}

// AdviseParallel is Advise with the per-candidate I/O analysis fanned out
// over `workers` goroutines (values below 1 mean one per CPU) with
// exec.Map. Candidates are gathered in enumeration order before ranking,
// so the result is identical at any worker count.
func AdviseParallel(star *schema.Star, cfg frag.IndexConfig, mix []WeightedQuery, th frag.Thresholds, p Params, workers int) []Ranked {
	specs := frag.Enumerate(star)
	ranked, err := exec.Map(context.Background(), workers, len(specs), func(i int) (*Ranked, error) {
		spec := specs[i]
		if !th.Admissible(spec, cfg) {
			return nil, nil
		}
		r := &Ranked{
			Spec:            spec,
			Bitmaps:         spec.SurvivingBitmaps(cfg),
			Fragments:       spec.NumFragments(),
			BitmapFragPages: spec.BitmapFragmentPages(),
		}
		for _, wq := range mix {
			c := Estimate(spec, cfg, wq.Query, p)
			r.PerQuery = append(r.PerQuery, c)
			r.Work += wq.Weight * float64(c.TotalBytes)
		}
		return r, nil
	})
	if err != nil { // tasks never fail; only a cancelled context could
		return nil
	}
	var out []Ranked
	for _, r := range ranked {
		if r != nil {
			out = append(out, *r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Work != out[j].Work {
			return out[i].Work < out[j].Work
		}
		// Tie-break: fewer fragments are cheaper to administer.
		return out[i].Fragments < out[j].Fragments
	})
	return out
}
