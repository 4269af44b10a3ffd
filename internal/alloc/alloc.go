// Package alloc implements the physical disk allocation of MDHF fragments
// (Section 4.6): round-robin placement of fact fragments in allocation
// order, the "staggered" placement of a fragment's bitmap allocation
// units onto consecutive disks (Figure 2), gcd-clustering analysis, and
// the prime / gap counter-measures the paper proposes.
package alloc

import (
	"fmt"

	"repro/internal/frag"
)

// Scheme selects the fact fragment placement function.
type Scheme int

const (
	// RoundRobin places fragment i on disk i mod d (Figure 2).
	RoundRobin Scheme = iota
	// GapRoundRobin shifts the start disk by one after every full round:
	// fragment i goes to disk (i + i/d) mod d. This breaks the gcd
	// clustering of plain round robin (Section 4.6's "modified allocation
	// scheme introducing certain gaps").
	GapRoundRobin
)

func (s Scheme) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case GapRoundRobin:
		return "gap-round-robin"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Placement maps fact and bitmap fragments to disks.
type Placement struct {
	// Disks is the number of disks d.
	Disks int
	// Scheme is the fact fragment placement scheme.
	Scheme Scheme
	// Staggered controls the placement of the bitmap allocation units
	// belonging to fact fragment i — the things one bitmap I/O reads: a
	// bitmap fragment of a page or more is a unit of its own, smaller ones
	// share a unit (frag.PackBitmapUnits). If true, the units are placed on
	// the consecutive disks following i's disk, which spreads the reads of
	// one subquery over distinct disks and keeps them off the disk its fact
	// pages come from; when all of a fragment's bitmap fragments fit one
	// unit there is nothing left to spread, and staggering only decides
	// that this one unit sits on the next disk. If false, the units are
	// co-located with the fact fragment.
	Staggered bool
	// Cluster groups this many consecutive fragments into one allocation
	// granule sharing a disk (Section 6.3's clustering; 0/1 = none).
	Cluster int
}

// Validate checks the placement is well-formed: at least one disk and a
// non-negative clustering granule.
func (p Placement) Validate() error {
	if p.Disks < 1 {
		return fmt.Errorf("alloc: placement needs >= 1 disk (got %d)", p.Disks)
	}
	if p.Cluster < 0 {
		return fmt.Errorf("alloc: negative clustering granule %d", p.Cluster)
	}
	return nil
}

// FactDisk returns the disk of fact fragment id.
func (p Placement) FactDisk(id int64) int {
	if p.Cluster > 1 {
		id /= int64(p.Cluster)
	}
	d := int64(p.Disks)
	switch p.Scheme {
	case GapRoundRobin:
		return int((id + id/d) % d)
	default:
		return int(id % d)
	}
}

// BitmapDisk returns the disk of the unit-th bitmap allocation unit
// associated with fact fragment id (Figure 2: disks j+1, j+2, ..., j+k
// modulo d). In the paper's regime — every bitmap fragment at least a
// page — the unit index is the bitmap fragment's index.
func (p Placement) BitmapDisk(id int64, unit int) int {
	if !p.Staggered {
		return p.FactDisk(id)
	}
	return (p.FactDisk(id) + 1 + unit) % p.Disks
}

// DisksUsed returns the number of distinct disks holding the fact fragments
// relevant to query q under fragmentation spec — the effective I/O
// parallelism of the fact table scan (Section 4.6).
func DisksUsed(spec *frag.Spec, q frag.Query, p Placement) int {
	used := make(map[int]struct{}, p.Disks)
	spec.ForEachFragment(q, func(id int64, _ []int) bool {
		used[p.FactDisk(id)] = struct{}{}
		return len(used) < p.Disks // stop early once all disks are hit
	})
	return len(used)
}

// Gcd returns the greatest common divisor of a and b.
func Gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

// StrideDisks returns the number of distinct disks reached by accessing
// every stride-th fragment under plain round robin over d disks:
// d / gcd(stride, d). This is the analytical form of the Section 4.6
// example (stride 480, d = 100, gcd 20 → only 5 disks).
func StrideDisks(stride, d int64) int64 {
	return d / Gcd(stride, d)
}

// IsPrime reports whether n is prime; the paper recommends a prime number
// of disks to avoid gcd clustering.
func IsPrime(n int) bool {
	if n < 2 {
		return false
	}
	for i := 2; i*i <= n; i++ {
		if n%i == 0 {
			return false
		}
	}
	return true
}

// NextPrime returns the smallest prime >= n.
func NextPrime(n int) int {
	if n < 2 {
		return 2
	}
	for !IsPrime(n) {
		n++
	}
	return n
}
