package data

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/schema"
)

func TestGenerateExactCount(t *testing.T) {
	s := schema.Tiny()
	tab := MustGenerate(s, 1)
	if int64(tab.N()) != s.N() {
		t.Fatalf("rows = %d, want %d", tab.N(), s.N())
	}
}

func TestGenerateNoDuplicatesAndInDomain(t *testing.T) {
	s := schema.Tiny()
	tab := MustGenerate(s, 7)
	seen := make(map[[3]int32]bool, tab.N())
	for i := 0; i < tab.N(); i++ {
		var key [3]int32
		for d := range tab.Dims {
			v := tab.Dims[d][i]
			if int(v) < 0 || int(v) >= s.Dims[d].LeafCard() {
				t.Fatalf("row %d dim %d value %d out of domain", i, d, v)
			}
			key[d] = v
		}
		if seen[key] {
			t.Fatalf("duplicate combination %v", key)
		}
		seen[key] = true
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := schema.Tiny()
	a := MustGenerate(s, 42)
	b := MustGenerate(s, 42)
	for i := 0; i < a.N(); i++ {
		for d := range a.Dims {
			if a.Dims[d][i] != b.Dims[d][i] {
				t.Fatalf("row %d differs between runs", i)
			}
		}
		if a.DollarSales[i] != b.DollarSales[i] {
			t.Fatalf("measures differ at %d", i)
		}
	}
	c := MustGenerate(s, 43)
	same := true
	for i := 0; i < a.N() && same; i++ {
		for d := range a.Dims {
			if a.Dims[d][i] != c.Dims[d][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical tables")
	}
}

func TestGenerateUniformish(t *testing.T) {
	// Each store's row count should be close to N/stores.
	s := schema.APB1Scaled(60)
	tab := MustGenerate(s, 3)
	cd := s.DimIndex(schema.DimCustomer)
	stores := s.Dims[cd].LeafCard()
	counts := make([]int, stores)
	for i := 0; i < tab.N(); i++ {
		counts[tab.Dims[cd][i]]++
	}
	expect := float64(tab.N()) / float64(stores)
	for m, c := range counts {
		if float64(c) < 0.7*expect || float64(c) > 1.3*expect {
			t.Errorf("store %d has %d rows, expected ~%.0f", m, c, expect)
		}
	}
}

func TestGenerateMeasuresConsistent(t *testing.T) {
	s := schema.Tiny()
	tab := MustGenerate(s, 5)
	for i := 0; i < tab.N(); i++ {
		if tab.UnitsSold[i] < 1 || tab.UnitsSold[i] > 100 {
			t.Fatalf("units[%d] = %d", i, tab.UnitsSold[i])
		}
		if tab.DollarSales[i] < tab.UnitsSold[i] {
			t.Fatalf("dollars[%d] = %d < units %d", i, tab.DollarSales[i], tab.UnitsSold[i])
		}
		if tab.Cost[i] > tab.DollarSales[i] {
			t.Fatalf("cost[%d] = %d > dollars %d", i, tab.Cost[i], tab.DollarSales[i])
		}
	}
}

func TestGenerateRejectsHugeSchemas(t *testing.T) {
	if _, err := Generate(schema.APB1(), 1); err == nil {
		t.Fatal("full-scale APB-1 generation should be refused")
	}
}

func TestGenerateRejectsInvalidSchema(t *testing.T) {
	s := schema.Tiny()
	s.Density = 0
	if _, err := Generate(s, 1); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

func TestFeistelIsBijection(t *testing.T) {
	f := func(domainSeed uint32, seed int64) bool {
		domain := uint64(domainSeed)%5000 + 2
		perm := newFeistel(domain, uint64(seed))
		seen := make(map[uint64]bool, domain)
		for x := uint64(0); x < domain; x++ {
			y := perm.apply(x)
			if y >= domain || seen[y] {
				return false
			}
			seen[y] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafMembersBufferReuse(t *testing.T) {
	s := schema.Tiny()
	tab := MustGenerate(s, 1)
	buf := make([]int, 0)
	m0 := tab.LeafMembers(0, buf)
	if len(m0) != len(s.Dims) {
		t.Fatalf("len = %d", len(m0))
	}
	m1 := tab.LeafMembers(1, m0)
	for d := range s.Dims {
		if m1[d] != int(tab.Dims[d][1]) {
			t.Fatalf("buffer reuse wrong at dim %d", d)
		}
	}
}

// TestCheckFindsTheRowMajorFirstBadCell plants one to four bad leaves —
// below or past the domain, on any dimension, often sharing a row — at
// random cells of a generated table: Check's column-at-a-time scan must
// report the error of the row-major reference, which checks each row in
// turn with CheckLeaves.
func TestCheckFindsTheRowMajorFirstBadCell(t *testing.T) {
	s := schema.APB1Scaled(60)
	good := MustGenerate(s, 1)
	rowMajor := func(t *Table) error {
		row := make([]int32, len(t.Dims))
		for i := range t.N() {
			for d := range row {
				row[d] = t.Dims[d][i]
			}
			if err := CheckLeaves(t.Star, row); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	}
	if err := good.Check(); err != nil {
		t.Fatalf("generated table: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		bad := *good
		bad.Dims = slices.Clone(good.Dims)
		rows := []int{rng.Intn(good.N()), rng.Intn(good.N())} // a second cell often shares a row
		for k := 0; k < 1+rng.Intn(4); k++ {
			d, i := rng.Intn(len(s.Dims)), rows[rng.Intn(2)]
			if rng.Intn(2) == 0 {
				i = rng.Intn(good.N())
			}
			bad.Dims[d] = slices.Clone(bad.Dims[d])
			bad.Dims[d][i] = [...]int32{-1, int32(s.Dims[d].LeafCard()), math.MaxInt32, math.MinInt32}[rng.Intn(4)]
		}
		got, want := bad.Check(), rowMajor(&bad)
		if got == nil || want == nil || got.Error() != want.Error() || !errors.Is(got, ErrBadFacts) {
			t.Fatalf("trial %d: Check = %v, row-major reference = %v", trial, got, want)
		}
	}
}
