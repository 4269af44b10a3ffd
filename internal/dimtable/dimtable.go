// Package dimtable materialises the denormalized dimension tables of a
// star schema (Figure 1) with generated member names and one name → member
// map per hierarchy level. It resolves attribute names to member ids,
// turning name-level selections into the integer predicates the
// fragmentation layer works with — the piece a SQL front end would sit on.
// The paper's dimension tables have B*-tree indices (Section 5); no model
// here costs a dimension-table access, so a map is all name resolution
// needs.
package dimtable

import (
	"fmt"
	"strings"

	"repro/internal/frag"
	"repro/internal/schema"
)

// Table is one denormalized dimension table: one row per leaf member, one
// column per hierarchy level holding the member's name at that level.
type Table struct {
	Dim *schema.Dimension
	// names[level][member] is the generated member name.
	names [][]string
	// index[level] maps name -> member id at that level.
	index []map[string]int
}

// MemberName returns the canonical generated name of a member:
// LEVELNAME-NNNN in upper case (e.g. "GROUP-0042").
func MemberName(level schema.Level, m int) string {
	return fmt.Sprintf("%s-%04d", strings.ToUpper(level.Name), m)
}

// Build materialises the dimension table and its per-level indices.
func Build(dim *schema.Dimension) *Table {
	t := &Table{
		Dim:   dim,
		names: make([][]string, dim.Depth()),
		index: make([]map[string]int, dim.Depth()),
	}
	for l := range dim.Levels {
		card := dim.Levels[l].Card
		t.names[l] = make([]string, card)
		t.index[l] = make(map[string]int, card)
		for m := 0; m < card; m++ {
			name := MemberName(dim.Levels[l], m)
			t.names[l][m] = name
			t.index[l][name] = m
		}
	}
	return t
}

// Name returns the name of member m at the given level.
func (t *Table) Name(level, m int) string { return t.names[level][m] }

// Lookup resolves a member name at a level.
func (t *Table) Lookup(level int, name string) (int, bool) {
	m, ok := t.index[level][name]
	return m, ok
}

// Catalog holds the dimension tables of a star schema.
type Catalog struct {
	Star   *schema.Star
	Tables []*Table
}

// BuildCatalog materialises every dimension table of the schema.
func BuildCatalog(star *schema.Star) *Catalog {
	c := &Catalog{Star: star}
	for i := range star.Dims {
		c.Tables = append(c.Tables, Build(&star.Dims[i]))
	}
	return c
}

// Bytes estimates the catalog's storage footprint (names only) — the
// paper notes the dimension tables "only occupy 1 MB" for APB-1.
func (c *Catalog) Bytes() int {
	total := 0
	for _, t := range c.Tables {
		for _, col := range t.names {
			for _, n := range col {
				total += len(n)
			}
		}
	}
	return total
}

// levelRef resolves a "dim.level" attribute reference.
func (c *Catalog) levelRef(attr string) (frag.LevelRef, error) {
	dl := strings.SplitN(strings.TrimSpace(attr), ".", 2)
	if len(dl) != 2 {
		return frag.LevelRef{}, fmt.Errorf("dimtable: malformed attribute %q (want dim.level)", attr)
	}
	di := c.Star.DimIndex(strings.TrimSpace(dl[0]))
	if di < 0 {
		return frag.LevelRef{}, fmt.Errorf("dimtable: unknown dimension %q", dl[0])
	}
	li := c.Star.Dims[di].LevelIndex(strings.TrimSpace(dl[1]))
	if li < 0 {
		return frag.LevelRef{}, fmt.Errorf("dimtable: unknown level %q of %s", dl[1], dl[0])
	}
	return frag.LevelRef{Dim: di, Level: li}, nil
}

// ParseQuery resolves a name-level star query of the form
// "dim.level = 'NAME', ..." into integer predicates through the per-level
// name maps — the front-end path of query processing step 1 (Section 4.3).
// A trailing "group by dim.level, ..." clause (case-insensitive) sets the
// query's GroupBy levels.
func (c *Catalog) ParseQuery(text string) (frag.Query, error) {
	var q frag.Query
	sel, gb, hasGB := frag.SplitGroupBy(text)
	for _, part := range strings.Split(sel, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.SplitN(part, "=", 2)
		if len(eq) != 2 {
			return frag.Query{}, fmt.Errorf("dimtable: malformed predicate %q", part)
		}
		ref, err := c.levelRef(eq[0])
		if err != nil {
			return frag.Query{}, err
		}
		name, err := unquote(strings.TrimSpace(eq[1]))
		if err != nil {
			return frag.Query{}, err
		}
		m, ok := c.Tables[ref.Dim].Lookup(ref.Level, name)
		if !ok {
			return frag.Query{}, fmt.Errorf("dimtable: no member %q at %s", name, strings.TrimSpace(eq[0]))
		}
		q.Preds = append(q.Preds, frag.Pred{Dim: ref.Dim, Level: ref.Level, Member: m})
	}
	if hasGB {
		if strings.TrimSpace(gb) == "" {
			return frag.Query{}, fmt.Errorf("dimtable: empty GROUP BY clause")
		}
		for _, part := range strings.Split(gb, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				return frag.Query{}, fmt.Errorf("dimtable: empty GROUP BY item")
			}
			ref, err := c.levelRef(part)
			if err != nil {
				return frag.Query{}, err
			}
			q.GroupBy = append(q.GroupBy, ref)
		}
	}
	return q, q.Validate(c.Star)
}

// unquote strips a balanced pair of single or double quotes from a
// member-name value; an unbalanced quote is an error, a bare name is
// passed through.
func unquote(v string) (string, error) {
	if len(v) >= 1 && (v[0] == '\'' || v[0] == '"') {
		if len(v) < 2 || v[len(v)-1] != v[0] {
			return "", fmt.Errorf("dimtable: unbalanced quote in %q", v)
		}
		return v[1 : len(v)-1], nil
	}
	if len(v) >= 1 && (v[len(v)-1] == '\'' || v[len(v)-1] == '"') {
		return "", fmt.Errorf("dimtable: unbalanced quote in %q", v)
	}
	return v, nil
}

// FormatQuery renders a query in the name-level notation ParseQuery
// accepts ("dim.level = 'NAME' ... group by dim.level"); FormatQuery then
// ParseQuery round-trips exactly.
func (c *Catalog) FormatQuery(q frag.Query) string {
	var b strings.Builder
	for i, p := range q.Preds {
		if i > 0 {
			b.WriteString(", ")
		}
		d := &c.Star.Dims[p.Dim]
		fmt.Fprintf(&b, "%s.%s = '%s'", d.Name, d.Levels[p.Level].Name, c.Tables[p.Dim].Name(p.Level, p.Member))
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, ref := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			d := &c.Star.Dims[ref.Dim]
			fmt.Fprintf(&b, "%s.%s", d.Name, d.Levels[ref.Level].Name)
		}
	}
	return b.String()
}
