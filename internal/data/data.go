// Package data generates deterministic synthetic fact data for a star
// schema: exactly N = density * (product of leaf cardinalities) distinct
// leaf-value combinations, selected pseudo-randomly via a Feistel
// format-preserving permutation, with derived measure values. The paper's
// simulator works on page counts; this generator feeds the real execution
// engine (internal/engine) that validates plan correctness at reduced
// scale.
package data

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/schema"
)

// Table is a column-oriented fact table: one leaf-member column per
// dimension plus the APB-1 measures UnitsSold, DollarSales and Cost.
type Table struct {
	Star *schema.Star
	// Dims[d][i] is the leaf member of dimension d in row i.
	Dims [][]int32
	// UnitsSold, DollarSales and Cost are the measure columns.
	UnitsSold   []int64
	DollarSales []int64
	Cost        []int64
}

// N returns the number of fact rows.
func (t *Table) N() int { return len(t.UnitsSold) }

// Generate builds the fact table for the schema with the given seed. Row
// combinations are an exact-density pseudo-random sample of the cross
// product of the dimension leaf domains, without duplicates.
func Generate(star *schema.Star, seed int64) (*Table, error) {
	if err := star.Validate(); err != nil {
		return nil, err
	}
	m := star.MaxCombinations()
	n := star.N()
	const maxRows = 1 << 27
	if n > maxRows {
		return nil, fmt.Errorf("data: %d rows exceed the in-memory generator limit (%d); use a scaled schema", n, maxRows)
	}

	t := &Table{
		Star:        star,
		Dims:        make([][]int32, len(star.Dims)),
		UnitsSold:   make([]int64, n),
		DollarSales: make([]int64, n),
		Cost:        make([]int64, n),
	}
	for d := range t.Dims {
		t.Dims[d] = make([]int32, n)
	}

	perm := newFeistel(uint64(m), uint64(seed))
	radix := make([]int64, len(star.Dims))
	for d := range star.Dims {
		radix[d] = int64(star.Dims[d].LeafCard())
	}
	for i := int64(0); i < n; i++ {
		combo := int64(perm.apply(uint64(i)))
		// Decode the combination index in mixed radix, last dimension
		// fastest.
		c := combo
		for d := len(radix) - 1; d >= 0; d-- {
			t.Dims[d][i] = int32(c % radix[d])
			c /= radix[d]
		}
		// Measures derive deterministically from the combination.
		h := mix(uint64(combo) ^ uint64(seed))
		units := int64(1 + h%100)
		price := int64(1 + (combo % 50))
		t.UnitsSold[i] = units
		t.DollarSales[i] = units * price
		t.Cost[i] = units * price * 3 / 4
	}
	return t, nil
}

// MustGenerate is Generate, panicking on error. For tests and examples.
func MustGenerate(star *schema.Star, seed int64) *Table {
	t, err := Generate(star, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// ErrBadFacts is wrapped by every error refusing fact rows that do not
// fit their schema (a leaf outside its domain, too many or too few).
var ErrBadFacts = errors.New("data: fact rows do not fit the schema")

// CheckLeaves returns an error wrapping ErrBadFacts unless leaves holds
// one leaf member per dimension of star, each in [0, LeafCard).
func CheckLeaves(star *schema.Star, leaves []int32) error {
	if len(leaves) != len(star.Dims) {
		return fmt.Errorf("%w: %d leaves for %d dimensions", ErrBadFacts, len(leaves), len(star.Dims))
	}
	for d, m := range leaves {
		if card := star.Dims[d].LeafCard(); m < 0 || int(m) >= card {
			return fmt.Errorf("%w: %s leaf %d out of range [0,%d)", ErrBadFacts, star.Dims[d].Name, m, card)
		}
	}
	return nil
}

// Check returns an error wrapping ErrBadFacts unless t's columns are N
// long, one leaf column per dimension, and every row passes CheckLeaves;
// the error is CheckLeaves' for the first row that does not. It checks a
// column at a time, each only as far as the first bad row found so far,
// so the first bad row, and within it the first bad dimension, is the
// row-major check's.
func (t *Table) Check() error {
	n := t.N()
	if len(t.Dims) != len(t.Star.Dims) || len(t.DollarSales) != n || len(t.Cost) != n ||
		slices.ContainsFunc(t.Dims, func(col []int32) bool { return len(col) != n }) {
		return fmt.Errorf("%w: %d leaf columns for %d dimensions, or columns of unequal length", ErrBadFacts, len(t.Dims), len(t.Star.Dims))
	}
	bad := n
	for d, col := range t.Dims {
		card := uint32(t.Star.Dims[d].LeafCard())
		for i, m := range col[:bad] {
			if uint32(m) >= card {
				bad = i
				break
			}
		}
	}
	if bad == n {
		return nil
	}
	row := make([]int32, len(t.Dims))
	for d := range row {
		row[d] = t.Dims[d][bad]
	}
	return fmt.Errorf("row %d: %w", bad, CheckLeaves(t.Star, row))
}

// LeafMembers returns the leaf member per dimension of row i, for use with
// frag.Spec.CoordOf.
func (t *Table) LeafMembers(i int, buf []int) []int {
	if cap(buf) < len(t.Dims) {
		buf = make([]int, len(t.Dims))
	}
	buf = buf[:len(t.Dims)]
	for d := range t.Dims {
		buf[d] = int(t.Dims[d][i])
	}
	return buf
}

// feistel is a 4-round Feistel network over [0, domain) using cycle
// walking, i.e. a deterministic bijection (format-preserving permutation).
type feistel struct {
	domain   uint64
	halfBits uint
	mask     uint64
	keys     [4]uint64
}

func newFeistel(domain, seed uint64) *feistel {
	bits := uint(1)
	for uint64(1)<<bits < domain {
		bits++
	}
	if bits%2 == 1 {
		bits++
	}
	f := &feistel{domain: domain, halfBits: bits / 2, mask: 1<<(bits/2) - 1}
	for i := range f.keys {
		f.keys[i] = mix(seed + uint64(i)*0x9e3779b97f4a7c15)
	}
	return f
}

// apply maps x in [0, domain) to a unique value in [0, domain).
func (f *feistel) apply(x uint64) uint64 {
	for {
		l := x >> f.halfBits
		r := x & f.mask
		for _, k := range f.keys {
			l, r = r, l^(mix(r^k)&f.mask)
		}
		x = l<<f.halfBits | r
		if x < f.domain {
			return x
		}
		// Cycle-walk values that fall outside the domain.
	}
}

// mix is the splitmix64 finaliser: a fast, well-distributed 64-bit hash.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
