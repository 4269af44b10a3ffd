// Package workload defines the star query types of the MDHF study
// (Sections 3.1, 6) and generates single-user query streams with randomly
// chosen selection parameters, mirroring the paper's query generator
// (Section 5: "all queries are of the same type, but specific parameters
// are chosen at random").
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/frag"
	"repro/internal/schema"
)

// AttrRef names one query attribute by dimension and level name.
type AttrRef struct {
	Dim   string
	Level string
}

// QueryType is a named star query template: an exact-match predicate per
// referenced attribute, with the member values left open.
type QueryType struct {
	Name  string
	Attrs []AttrRef
}

// Paper query types used in the experiments.
var (
	// OneStore aggregates one customer store over everything else (1STORE).
	OneStore = QueryType{"1STORE", []AttrRef{{schema.DimCustomer, schema.LvlStore}}}
	// OneMonth aggregates one month (1MONTH).
	OneMonth = QueryType{"1MONTH", []AttrRef{{schema.DimTime, schema.LvlMonth}}}
	// OneCode aggregates one product code (1CODE).
	OneCode = QueryType{"1CODE", []AttrRef{{schema.DimProduct, schema.LvlCode}}}
	// OneGroup aggregates one product group (1GROUP).
	OneGroup = QueryType{"1GROUP", []AttrRef{{schema.DimProduct, schema.LvlGroup}}}
	// OneQuarter aggregates one quarter (1QUARTER).
	OneQuarter = QueryType{"1QUARTER", []AttrRef{{schema.DimTime, schema.LvlQuarter}}}
	// OneMonthOneGroup is the paper's sample two-dimensional star join
	// (1MONTH1GROUP, Section 3.1).
	OneMonthOneGroup = QueryType{"1MONTH1GROUP", []AttrRef{
		{schema.DimTime, schema.LvlMonth}, {schema.DimProduct, schema.LvlGroup}}}
	// OneCodeOneMonth (1CODE1MONTH, Section 4.2, query type Q2).
	OneCodeOneMonth = QueryType{"1CODE1MONTH", []AttrRef{
		{schema.DimProduct, schema.LvlCode}, {schema.DimTime, schema.LvlMonth}}}
	// OneCodeOneQuarter (1CODE1QUARTER, Sections 4.2/6.3, query type Q4).
	OneCodeOneQuarter = QueryType{"1CODE1QUARTER", []AttrRef{
		{schema.DimProduct, schema.LvlCode}, {schema.DimTime, schema.LvlQuarter}}}
	// OneGroupOneQuarter (Section 4.2, query type Q3).
	OneGroupOneQuarter = QueryType{"1GROUP1QUARTER", []AttrRef{
		{schema.DimProduct, schema.LvlGroup}, {schema.DimTime, schema.LvlQuarter}}}
	// OneGroupOneStore (Section 4.2: frag attribute plus a non-frag
	// dimension needing bitmap access).
	OneGroupOneStore = QueryType{"1GROUP1STORE", []AttrRef{
		{schema.DimProduct, schema.LvlGroup}, {schema.DimCustomer, schema.LvlStore}}}
)

// All lists the predefined query types.
func All() []QueryType {
	return []QueryType{
		OneStore, OneMonth, OneCode, OneGroup, OneQuarter,
		OneMonthOneGroup, OneCodeOneMonth, OneCodeOneQuarter,
		OneGroupOneQuarter, OneGroupOneStore,
	}
}

// ByName returns the predefined query type with the given name.
func ByName(name string) (QueryType, error) {
	for _, qt := range All() {
		if qt.Name == name {
			return qt, nil
		}
	}
	return QueryType{}, fmt.Errorf("workload: unknown query type %q", name)
}

// Bind resolves the template against a schema with explicit member values
// (one per attribute, in template order).
func (qt QueryType) Bind(star *schema.Star, members []int) (frag.Query, error) {
	if len(members) != len(qt.Attrs) {
		return frag.Query{}, fmt.Errorf("workload: %s needs %d members, got %d", qt.Name, len(qt.Attrs), len(members))
	}
	var q frag.Query
	for i, a := range qt.Attrs {
		di := star.DimIndex(a.Dim)
		if di < 0 {
			return frag.Query{}, fmt.Errorf("workload: schema lacks dimension %s", a.Dim)
		}
		li := star.Dims[di].LevelIndex(a.Level)
		if li < 0 {
			return frag.Query{}, fmt.Errorf("workload: dimension %s lacks level %s", a.Dim, a.Level)
		}
		q.Preds = append(q.Preds, frag.Pred{Dim: di, Level: li, Member: members[i]})
	}
	return q, q.Validate(star)
}

// Generator produces queries of given types with pseudo-random parameters.
type Generator struct {
	star *schema.Star
	rng  *rand.Rand
}

// NewGenerator returns a deterministic generator for the schema.
func NewGenerator(star *schema.Star, seed int64) *Generator {
	return &Generator{star: star, rng: rand.New(rand.NewSource(seed))}
}

// Next returns one query of the given type with uniformly chosen members.
func (g *Generator) Next(qt QueryType) (frag.Query, error) {
	members := make([]int, len(qt.Attrs))
	for i, a := range qt.Attrs {
		di := g.star.DimIndex(a.Dim)
		if di < 0 {
			return frag.Query{}, fmt.Errorf("workload: schema lacks dimension %s", a.Dim)
		}
		li := g.star.Dims[di].LevelIndex(a.Level)
		if li < 0 {
			return frag.Query{}, fmt.Errorf("workload: dimension %s lacks level %s", a.Dim, a.Level)
		}
		members[i] = g.rng.Intn(g.star.Dims[di].Levels[li].Card)
	}
	return qt.Bind(g.star, members)
}
