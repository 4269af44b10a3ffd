package dimtable

import (
	"strings"
	"testing"

	"repro/internal/frag"
	"repro/internal/schema"
)

func TestBuildAndLookup(t *testing.T) {
	s := schema.APB1()
	tab := Build(s.Dim(schema.DimProduct))
	if rows := len(tab.names[tab.Dim.Leaf()]); rows != 14_400 {
		t.Fatalf("rows = %d", rows)
	}
	group := tab.Dim.LevelIndex(schema.LvlGroup)
	name := tab.Name(group, 42)
	if name != "GROUP-0042" {
		t.Fatalf("name = %q", name)
	}
	m, ok := tab.Lookup(group, name)
	if !ok || m != 42 {
		t.Fatalf("Lookup = %d, %v", m, ok)
	}
	for _, name := range []string{"GROUP-9999", "group-0042", "GROUP-42", "GROUP-99999", ""} {
		if m, ok := tab.Lookup(group, name); ok {
			t.Fatalf("Lookup(%q) = %d, want no member", name, m)
		}
	}
	// Every member at every level of every dimension resolves back to
	// itself through its name.
	for i := range s.Dims {
		tab := Build(&s.Dims[i])
		for l, lv := range tab.Dim.Levels {
			for m := 0; m < lv.Card; m++ {
				if got, ok := tab.Lookup(l, tab.Name(l, m)); !ok || got != m {
					t.Fatalf("%s.%s: Lookup(Name(%d)) = %d, %v", tab.Dim.Name, lv.Name, m, got, ok)
				}
			}
		}
	}
}

func TestRowDenormalized(t *testing.T) {
	s := schema.APB1()
	tab := Build(s.Dim(schema.DimProduct))
	// Code 14399 belongs to class 959, group 479, family 119, line 23,
	// division 7.
	want := []string{"DIVISION-0007", "LINE-0023", "FAMILY-0119", "GROUP-0479", "CLASS-0959", "CODE-14399"}
	for l := range want {
		if got := tab.Name(l, tab.Dim.Ancestor(tab.Dim.Leaf(), 14399, l)); got != want[l] {
			t.Fatalf("level %d of code 14399: %q, want %q", l, got, want[l])
		}
	}
}

func TestCatalogSizeMatchesPaperClaim(t *testing.T) {
	// Section 4: "our four dimension tables only occupy 1 MB".
	c := BuildCatalog(schema.APB1())
	mb := float64(c.Bytes()) / (1 << 20)
	if mb < 0.1 || mb > 3 {
		t.Fatalf("catalog = %.2f MB, want on the order of 1 MB", mb)
	}
}

func TestCatalogParseQuery(t *testing.T) {
	s := schema.APB1()
	c := BuildCatalog(s)
	q, err := c.ParseQuery("time.month = 'MONTH-0003', product.group = 'GROUP-0042'")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("preds = %d", len(q.Preds))
	}
	spec := frag.MustParse(s, "time::month, product::group")
	if got := spec.RelevantCount(q); got != 1 {
		t.Fatalf("1MONTH1GROUP by name touches %d fragments, want 1", got)
	}
	if got := spec.Classify(q); got != frag.Q1 {
		t.Fatalf("class = %v", got)
	}
}

func TestCatalogParseQueryErrors(t *testing.T) {
	c := BuildCatalog(schema.APB1())
	bad := []string{
		"nonsense",
		"time.month",
		"nope.month = 'X'",
		"time.nope = 'X'",
		"time.month = 'MONTH-9999'",
		"time.month = 'MONTH-0001', time.year = 'YEAR-0000'", // dup dimension
	}
	for _, text := range bad {
		if _, err := c.ParseQuery(text); err == nil {
			t.Errorf("ParseQuery(%q) accepted", text)
		}
	}
}

func TestMemberNameFormat(t *testing.T) {
	l := schema.Level{Name: "store", Card: 1440}
	if got := MemberName(l, 7); got != "STORE-0007" {
		t.Fatalf("MemberName = %q", got)
	}
	if !strings.HasPrefix(MemberName(l, 1439), "STORE-") {
		t.Fatal("prefix wrong")
	}
}
