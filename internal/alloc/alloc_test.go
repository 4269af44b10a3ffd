package alloc

import (
	"testing"

	"repro/internal/frag"
	"repro/internal/schema"
)

func TestSection46GcdClustering(t *testing.T) {
	// Section 4.6: FMonthGroup allocated month-major on 100 disks; 1CODE
	// accesses every 480th fragment; gcd(480, 100) = 20 → only 5 disks,
	// "reducing possible parallelism by a factor of 4.8".
	if got := gcd(480, 100); got != 20 {
		t.Fatalf("gcd = %d", got)
	}
	if got := strideDisks(480, 100); got != 5 {
		t.Fatalf("stride 480 over 100 disks reaches %d, want 5", got)
	}
	// "If we allocate the other way round, ... 1MONTH queries are
	// restricted to 25 disks (gcd = 4)": stride 24 over 100 disks.
	if got := strideDisks(24, 100); got != 25 {
		t.Fatalf("stride 24 over 100 disks reaches %d, want 25", got)
	}

	s := schema.APB1()
	spec := frag.MustParse(s, "time::month, product::group")
	p := s.DimIndex(schema.DimProduct)
	code := s.Dim(schema.DimProduct).LevelIndex(schema.LvlCode)
	q := frag.Query{Preds: []frag.Pred{{Dim: p, Level: code, Member: 77}}}

	rr := Placement{Disks: 100, Scheme: RoundRobin, Staggered: true}
	if got := DisksUsed(spec, q, rr); got != 5 {
		t.Errorf("1CODE on 100 round-robin disks uses %d disks, want 5", got)
	}

	// Counter-measure 1: a prime number of disks restores parallelism.
	prime := Placement{Disks: 101, Scheme: RoundRobin}
	if got := DisksUsed(spec, q, prime); got != 24 {
		t.Errorf("1CODE on 101 disks uses %d disks, want 24 (one per fragment)", got)
	}

	// Counter-measure 2: the gap scheme on 100 disks.
	gap := Placement{Disks: 100, Scheme: GapRoundRobin}
	if got := DisksUsed(spec, q, gap); got <= 5 {
		t.Errorf("1CODE with gap scheme uses %d disks, want > 5", got)
	}
}

func TestFullDeclusteringForUnsupportedQuery(t *testing.T) {
	// 1STORE touches all fragments → all disks, under any scheme.
	s := schema.APB1()
	spec := frag.MustParse(s, "time::month, product::group")
	c := s.DimIndex(schema.DimCustomer)
	store := s.Dim(schema.DimCustomer).LevelIndex(schema.LvlStore)
	q := frag.Query{Preds: []frag.Pred{{Dim: c, Level: store, Member: 0}}}
	for _, sch := range []Scheme{RoundRobin, GapRoundRobin} {
		p := Placement{Disks: 100, Scheme: sch}
		if got := DisksUsed(spec, q, p); got != 100 {
			t.Errorf("%v: disks used = %d, want 100", sch, got)
		}
	}
}

func TestStaggeredBitmapPlacement(t *testing.T) {
	p := Placement{Disks: 100, Scheme: RoundRobin, Staggered: true}
	// Fact fragment 7 on disk 7; its 12 bitmap fragments on disks 8..19.
	if got := p.FactDisk(7); got != 7 {
		t.Fatalf("FactDisk(7) = %d", got)
	}
	for k := 0; k < 12; k++ {
		if got, want := p.BitmapDisk(7, k), 8+k; got != want {
			t.Errorf("BitmapDisk(7, %d) = %d, want %d", k, got, want)
		}
	}
	// Wrap-around.
	if got := p.BitmapDisk(99, 3); got != 3 {
		t.Errorf("BitmapDisk(99, 3) = %d, want 3", got)
	}
	// Distinct disks within one subquery → parallel bitmap I/O possible.
	seen := map[int]bool{}
	for k := 0; k < 12; k++ {
		d := p.BitmapDisk(42, k)
		if seen[d] {
			t.Fatalf("bitmap fragments share disk %d", d)
		}
		seen[d] = true
	}
}

func TestCoLocatedBitmapPlacement(t *testing.T) {
	p := Placement{Disks: 100, Scheme: RoundRobin, Staggered: false}
	for k := 0; k < 12; k++ {
		if got := p.BitmapDisk(42, k); got != 42 {
			t.Errorf("co-located BitmapDisk(42, %d) = %d, want 42", k, got)
		}
	}
}

func TestGapSchemeCoversAllDisks(t *testing.T) {
	// The gap scheme must still spread consecutive fragments over all disks.
	p := Placement{Disks: 10, Scheme: GapRoundRobin}
	seen := map[int]bool{}
	for id := int64(0); id < 10; id++ {
		seen[p.FactDisk(id)] = true
	}
	if len(seen) != 10 {
		t.Fatalf("first round covers %d disks, want 10", len(seen))
	}
}

func TestPrimeHelpers(t *testing.T) {
	primes := []int{2, 3, 5, 7, 97, 101}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false", p)
		}
	}
	for _, np := range []int{0, 1, 4, 9, 100, 14400} {
		if IsPrime(np) {
			t.Errorf("IsPrime(%d) = true", np)
		}
	}
	if got := NextPrime(100); got != 101 {
		t.Errorf("NextPrime(100) = %d", got)
	}
	if got := NextPrime(-5); got != 2 {
		t.Errorf("NextPrime(-5) = %d", got)
	}
	if got := NextPrime(7); got != 7 {
		t.Errorf("NextPrime(7) = %d", got)
	}
}

func TestSchemeString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || GapRoundRobin.String() != "gap-round-robin" {
		t.Error("Scheme.String wrong")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme string empty")
	}
}

func TestGcdProperties(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 5, 5}, {5, 0, 5}, {1, 1, 1}, {12, 18, 6}, {17, 13, 1},
	}
	for _, c := range cases {
		if got := gcd(c.a, c.b); got != c.want {
			t.Errorf("gcd(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// gcd returns the greatest common divisor of a and b.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

// strideDisks counts the distinct disks plain round robin over d disks
// places every stride-th fragment on.
func strideDisks(stride int64, d int) int {
	p := Placement{Disks: d, Scheme: RoundRobin}
	seen := map[int]bool{}
	for k := int64(0); k < int64(d); k++ {
		seen[p.FactDisk(k*stride)] = true
	}
	return len(seen)
}

// TestStrideDisksCoprimeProperty is the counter-measure property behind
// the paper's prime-disk recommendation: accessing every stride-th
// fragment under round robin reaches d / gcd(stride, d) disks, so all d
// exactly when stride and d are coprime — in particular for any stride
// against a prime d that does not divide it (d up to 64 here).
func TestStrideDisksCoprimeProperty(t *testing.T) {
	for d := 1; d <= 64; d++ {
		for stride := int64(1); stride <= 128; stride++ {
			got := strideDisks(stride, d)
			if gcd(stride, int64(d)) == 1 && got != d {
				t.Fatalf("coprime stride %d over %d disks reaches %d disks", stride, d, got)
			}
			if want := d / int(gcd(stride, int64(d))); got != want {
				t.Fatalf("stride %d over %d disks reaches %d, want %d", stride, d, got, want)
			}
		}
	}
}

// bruteDisksUsed recomputes DisksUsed by materialising the full relevant
// fragment list and counting distinct disks without any early exit.
func bruteDisksUsed(spec *frag.Spec, q frag.Query, p Placement) int {
	used := map[int]bool{}
	spec.ForEachFragment(q, func(id int64, _ []int) bool {
		used[p.FactDisk(id)] = true
		return true
	})
	return len(used)
}

// TestDisksUsedMatchesBruteForce cross-checks DisksUsed (which stops
// early once every disk is hit) against the brute-force count over the
// paper's query classes, both placement schemes, clustering granules and
// a range of disk counts including primes.
func TestDisksUsedMatchesBruteForce(t *testing.T) {
	s := schema.APB1()
	spec := frag.MustParse(s, "time::month, product::group")
	pd := s.DimIndex(schema.DimProduct)
	td := s.DimIndex(schema.DimTime)
	cd := s.DimIndex(schema.DimCustomer)
	queries := map[string]frag.Query{
		"1CODE":    {Preds: []frag.Pred{{Dim: pd, Level: s.Dims[pd].LevelIndex(schema.LvlCode), Member: 77}}},
		"1MONTH":   {Preds: []frag.Pred{{Dim: td, Level: s.Dims[td].LevelIndex(schema.LvlMonth), Member: 3}}},
		"1GROUP":   {Preds: []frag.Pred{{Dim: pd, Level: s.Dims[pd].LevelIndex(schema.LvlGroup), Member: 2}}},
		"1STORE":   {Preds: []frag.Pred{{Dim: cd, Level: s.Dims[cd].LevelIndex(schema.LvlStore), Member: 9}}},
		"1QUARTER": {Preds: []frag.Pred{{Dim: td, Level: s.Dims[td].LevelIndex(schema.LvlQuarter), Member: 1}}},
	}
	for name, q := range queries {
		for _, disks := range []int{1, 2, 3, 5, 7, 16, 97, 100, 101} {
			for _, scheme := range []Scheme{RoundRobin, GapRoundRobin} {
				for _, cluster := range []int{0, 1, 4} {
					p := Placement{Disks: disks, Scheme: scheme, Cluster: cluster}
					got := DisksUsed(spec, q, p)
					want := bruteDisksUsed(spec, q, p)
					if got != want {
						t.Errorf("%s d=%d %v cluster=%d: DisksUsed = %d, brute force = %d", name, disks, scheme, cluster, got, want)
					}
					if got > disks {
						t.Errorf("%s d=%d %v: DisksUsed %d exceeds disk count", name, disks, scheme, got)
					}
				}
			}
		}
	}
}

// TestRoundRobinCoversCoprimeFragmentCounts is the placement-level form
// of the coprime property: n consecutive fragments land on min(n, d)
// distinct disks, for both schemes (strided access is
// TestStrideDisksCoprimeProperty's).
func TestRoundRobinCoversCoprimeFragmentCounts(t *testing.T) {
	for _, d := range []int{2, 3, 5, 8, 13, 16, 101} {
		for _, scheme := range []Scheme{RoundRobin, GapRoundRobin} {
			p := Placement{Disks: d, Scheme: scheme}
			for _, n := range []int{1, d - 1, d, d + 1, 3 * d} {
				if n < 1 {
					continue
				}
				seen := map[int]bool{}
				for id := int64(0); id < int64(n); id++ {
					disk := p.FactDisk(id)
					if disk < 0 || disk >= d {
						t.Fatalf("d=%d %v: FactDisk(%d) = %d out of range", d, scheme, id, disk)
					}
					seen[disk] = true
				}
				want := n
				if want > d {
					want = d
				}
				if len(seen) != want {
					t.Errorf("d=%d %v: %d consecutive fragments cover %d disks, want %d", d, scheme, n, len(seen), want)
				}
			}
		}
	}
}

// TestPlacementValidate: a placement needs a disk, a known scheme and a
// non-negative clustering granule.
func TestPlacementValidate(t *testing.T) {
	for _, tc := range []struct {
		p  Placement
		ok bool
	}{
		{Placement{Disks: 4}, true},
		{Placement{Disks: 4, Scheme: GapRoundRobin, Cluster: 2}, true},
		{Placement{Disks: 0}, false},
		{Placement{Disks: 4, Scheme: Scheme(99)}, false},
		{Placement{Disks: 4, Scheme: Scheme(-1)}, false},
		{Placement{Disks: 4, Cluster: -1}, false},
	} {
		if err := tc.p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v: Validate() = %v, want ok %v", tc.p, err, tc.ok)
		}
	}
}
