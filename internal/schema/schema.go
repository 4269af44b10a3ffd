// Package schema models relational star schemas with hierarchically
// structured dimensions, as used by the APB-1 decision support benchmark and
// by the MDHF data allocation study (Stöhr/Märtens/Rahm, VLDB 2000).
//
// A Dimension is an ordered list of hierarchy levels from the coarsest
// (e.g. product division) to the finest (e.g. product code). As in APB-1,
// hierarchies are uniform: every member of a level has the same number of
// children, so member arithmetic (ancestor, descendant range) is pure
// integer math and needs no stored dimension tables.
package schema

import (
	"errors"
	"fmt"
)

// Level is one hierarchy level of a dimension. Card is the total number of
// members at this level across the whole dimension (not per parent).
type Level struct {
	Name string
	Card int
}

// Dimension is a hierarchically structured dimension. Levels are ordered
// from the coarsest (index 0) to the finest (index len(Levels)-1, the level
// the fact table's foreign key refers to). Cardinalities must be
// non-decreasing and each level's cardinality must divide the next one's,
// yielding a uniform fan-out.
type Dimension struct {
	Name   string
	Levels []Level
}

// Validate checks the uniform-hierarchy invariants.
func (d *Dimension) Validate() error {
	if d.Name == "" {
		return errors.New("schema: dimension has empty name")
	}
	if len(d.Levels) == 0 {
		return fmt.Errorf("schema: dimension %s has no levels", d.Name)
	}
	prev := 0
	for i, l := range d.Levels {
		if l.Card <= 0 {
			return fmt.Errorf("schema: dimension %s level %s has cardinality %d", d.Name, l.Name, l.Card)
		}
		if i > 0 {
			if l.Card < prev {
				return fmt.Errorf("schema: dimension %s level %s cardinality %d below parent level %d", d.Name, l.Name, l.Card, prev)
			}
			if l.Card%prev != 0 {
				return fmt.Errorf("schema: dimension %s level %s cardinality %d not a multiple of parent cardinality %d", d.Name, l.Name, l.Card, prev)
			}
		}
		prev = l.Card
	}
	return nil
}

// Depth returns the number of hierarchy levels.
func (d *Dimension) Depth() int { return len(d.Levels) }

// Leaf returns the index of the finest level.
func (d *Dimension) Leaf() int { return len(d.Levels) - 1 }

// LeafCard returns the cardinality of the finest level, i.e. the domain of
// the fact table's foreign key for this dimension.
func (d *Dimension) LeafCard() int { return d.Levels[d.Leaf()].Card }

// LevelIndex returns the index of the named level, or -1.
func (d *Dimension) LevelIndex(name string) int {
	for i, l := range d.Levels {
		if l.Name == name {
			return i
		}
	}
	return -1
}

// FanOut returns the number of children each member of level has at
// level+1. FanOut of the leaf level is 1 by convention.
func (d *Dimension) FanOut(level int) int {
	if level >= d.Leaf() {
		return 1
	}
	return d.Levels[level+1].Card / d.Levels[level].Card
}

// FanOutBetween returns how many members of the finer level `to` belong to
// one member of the coarser level `from` (to >= from).
func (d *Dimension) FanOutBetween(from, to int) int {
	if to < from {
		panic(fmt.Sprintf("schema: FanOutBetween(%d, %d): to < from", from, to))
	}
	return d.Levels[to].Card / d.Levels[from].Card
}

// Ancestor maps member m of level `from` to its ancestor at the coarser
// level `to` (to <= from). Members are dense indices 0..Card-1 ordered so
// that children of the same parent are contiguous.
func (d *Dimension) Ancestor(from int, m int, to int) int {
	if to > from {
		panic(fmt.Sprintf("schema: Ancestor from level %d to finer level %d", from, to))
	}
	return m / d.FanOutBetween(to, from)
}

// DescendantRange returns the half-open member range [lo, hi) at the finer
// level `to` covered by member m of level `from` (to >= from).
func (d *Dimension) DescendantRange(from int, m int, to int) (lo, hi int) {
	f := d.FanOutBetween(from, to)
	return m * f, (m + 1) * f
}

// ChildIndex returns the index of member m (at level `level`) within its
// parent at level-1. For level 0 it returns m itself.
func (d *Dimension) ChildIndex(level, m int) int {
	if level == 0 {
		return m
	}
	return m % d.FanOut(level-1)
}

// Star is a star schema: one fact table with one foreign key per dimension
// (referring to the dimension's leaf level) plus measure attributes.
type Star struct {
	Name string
	Dims []Dimension

	// Density is the fraction of all possible leaf-value combinations that
	// actually occur as fact rows (APB-1's density factor, 0 < Density <= 1).
	Density float64

	// TupleSize is the fact tuple size in bytes.
	TupleSize int
	// PageSize is the database page size in bytes.
	PageSize int
	// TuplesPerPage is the number of fact tuples stored per page. If zero,
	// it defaults to PageSize/TupleSize. The paper uses the round value 200
	// (4 KB pages, 20 B tuples) and we follow it in the APB-1 config.
	TuplesPerPage int
}

// Validate checks schema invariants.
func (s *Star) Validate() error {
	if len(s.Dims) == 0 {
		return errors.New("schema: star has no dimensions")
	}
	seen := make(map[string]bool, len(s.Dims))
	for i := range s.Dims {
		if err := s.Dims[i].Validate(); err != nil {
			return err
		}
		if seen[s.Dims[i].Name] {
			return fmt.Errorf("schema: duplicate dimension %s", s.Dims[i].Name)
		}
		seen[s.Dims[i].Name] = true
	}
	if s.Density <= 0 || s.Density > 1 {
		return fmt.Errorf("schema: density %g out of (0, 1]", s.Density)
	}
	if s.TupleSize <= 0 || s.PageSize <= 0 {
		return fmt.Errorf("schema: tuple size %d / page size %d must be positive", s.TupleSize, s.PageSize)
	}
	if s.TupleSize > s.PageSize {
		return fmt.Errorf("schema: tuple size %d exceeds page size %d", s.TupleSize, s.PageSize)
	}
	return nil
}

// Dim returns the dimension with the given name, or nil.
func (s *Star) Dim(name string) *Dimension {
	for i := range s.Dims {
		if s.Dims[i].Name == name {
			return &s.Dims[i]
		}
	}
	return nil
}

// DimIndex returns the index of the named dimension, or -1.
func (s *Star) DimIndex(name string) int {
	for i := range s.Dims {
		if s.Dims[i].Name == name {
			return i
		}
	}
	return -1
}

// MaxCombinations returns the product of all leaf cardinalities, i.e. the
// maximal possible number of fact rows.
func (s *Star) MaxCombinations() int64 {
	n := int64(1)
	for i := range s.Dims {
		n *= int64(s.Dims[i].LeafCard())
	}
	return n
}

// N returns the number of fact rows implied by the density factor.
func (s *Star) N() int64 {
	return int64(float64(s.MaxCombinations()) * s.Density)
}

// FactTuplesPerPage returns the effective number of fact tuples per page.
func (s *Star) FactTuplesPerPage() int {
	if s.TuplesPerPage > 0 {
		return s.TuplesPerPage
	}
	return s.PageSize / s.TupleSize
}
