package schema

// Canonical dimension and level names of the APB-1 star schema as used in
// the paper (Figure 1).
const (
	DimProduct  = "product"
	DimCustomer = "customer"
	DimChannel  = "channel"
	DimTime     = "time"

	LvlDivision = "division"
	LvlLine     = "line"
	LvlFamily   = "family"
	LvlGroup    = "group"
	LvlClass    = "class"
	LvlCode     = "code"

	LvlRetailer = "retailer"
	LvlStore    = "store"

	LvlChannel = "channel"

	LvlYear    = "year"
	LvlQuarter = "quarter"
	LvlMonth   = "month"
)

// APB1 returns the star schema of the paper's evaluation: the APB-1 sales
// analysis schema with 15 channels, 24 months and a density factor of 25 %,
// yielding 1,866,240,000 fact rows (Figure 1).
//
// The retailer cardinality is not stated in the paper; 144 (10 stores per
// retailer) reproduces both the paper's 12-bitmap encoded CUSTOMER index
// (ceil(log2 144) + ceil(log2 10) = 8 + 4) and 11 of Table 2's 16 cells
// (internal/experiments/testdata/repro/table2.csv).
func APB1() *Star {
	return &Star{
		Name: "APB-1",
		Dims: []Dimension{
			{
				Name: DimProduct,
				Levels: []Level{
					{LvlDivision, 8},
					{LvlLine, 24},
					{LvlFamily, 120},
					{LvlGroup, 480},
					{LvlClass, 960},
					{LvlCode, 14400},
				},
			},
			{
				Name: DimCustomer,
				Levels: []Level{
					{LvlRetailer, 144},
					{LvlStore, 1440},
				},
			},
			{
				Name:   DimChannel,
				Levels: []Level{{LvlChannel, 15}},
			},
			{
				Name: DimTime,
				Levels: []Level{
					{LvlYear, 2},
					{LvlQuarter, 8},
					{LvlMonth, 24},
				},
			},
		},
		Density:   0.25,
		TupleSize: 20,
		PageSize:  4096,
		// The paper rounds 4096/20 to "about 200 tuples per fact table page"
		// and its arithmetic (e.g. the 1-in-7 hit-page density of 1STORE)
		// relies on it, so the APB-1 config pins 200.
		TuplesPerPage: 200,
	}
}

// APB1Scaled returns an APB-1-shaped schema whose leaf cardinalities are
// reduced by the given per-dimension divisors so that real data generation
// and in-memory query execution remain tractable. The hierarchy structure
// (number of levels, level names) is preserved; each level's cardinality is
// scaled proportionally but kept >= 1 and the divisibility invariant is
// maintained by scaling fan-outs rather than totals.
//
// factor applies to the product code, customer store and time month counts;
// channel keeps its 15 members (scaling a 1-level dimension is pointless).
func APB1Scaled(factor int) *Star {
	if factor <= 1 {
		return APB1()
	}
	s := APB1()
	switch {
	case factor >= 60:
		// Minimal structure-preserving schema: fan-outs 2 everywhere.
		s.Dims[0].Levels = []Level{
			{LvlDivision, 2}, {LvlLine, 4}, {LvlFamily, 8},
			{LvlGroup, 16}, {LvlClass, 32}, {LvlCode, 480},
		}
		s.Dims[1].Levels = []Level{{LvlRetailer, 6}, {LvlStore, 24}}
		s.Dims[2].Levels = []Level{{LvlChannel, 5}}
		s.Dims[3].Levels = []Level{{LvlYear, 2}, {LvlQuarter, 4}, {LvlMonth, 12}}
	case factor >= 10:
		s.Dims[0].Levels = []Level{
			{LvlDivision, 4}, {LvlLine, 12}, {LvlFamily, 60},
			{LvlGroup, 120}, {LvlClass, 240}, {LvlCode, 1440},
		}
		s.Dims[1].Levels = []Level{{LvlRetailer, 12}, {LvlStore, 144}}
		s.Dims[2].Levels = []Level{{LvlChannel, 15}}
		s.Dims[3].Levels = []Level{{LvlYear, 2}, {LvlQuarter, 8}, {LvlMonth, 24}}
	default:
		s.Dims[0].Levels = []Level{
			{LvlDivision, 8}, {LvlLine, 24}, {LvlFamily, 120},
			{LvlGroup, 240}, {LvlClass, 480}, {LvlCode, 4800},
		}
		s.Dims[1].Levels = []Level{{LvlRetailer, 60}, {LvlStore, 480}}
		s.Dims[2].Levels = []Level{{LvlChannel, 15}}
		s.Dims[3].Levels = []Level{{LvlYear, 2}, {LvlQuarter, 8}, {LvlMonth, 24}}
	}
	s.Name = "APB-1-scaled"
	return s
}

// Tiny returns a very small star schema with the APB-1 shape, suitable for
// unit tests and property tests that enumerate exhaustively.
func Tiny() *Star {
	return &Star{
		Name: "tiny",
		Dims: []Dimension{
			{Name: DimProduct, Levels: []Level{{LvlGroup, 2}, {LvlClass, 4}, {LvlCode, 8}}},
			{Name: DimCustomer, Levels: []Level{{LvlRetailer, 2}, {LvlStore, 6}}},
			{Name: DimTime, Levels: []Level{{LvlQuarter, 2}, {LvlMonth, 4}}},
		},
		Density:       0.5,
		TupleSize:     20,
		PageSize:      4096,
		TuplesPerPage: 16,
	}
}
