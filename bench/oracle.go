package main

import (
	"reflect"
	"sort"

	mdhf "repro"
	"repro/internal/schema"
)

// fillOracle computes the expected result of every op, once per distinct
// query text, with an in-memory warehouse over the same table.
func fillOracle(e *env, ops []op) error {
	w, err := mdhf.Open(e.ctx, e.cfg)
	if err != nil {
		return err
	}
	defer w.Close()
	byText := make(map[string]*mdhf.Result)
	for i := range ops {
		want, ok := byText[ops[i].text]
		if !ok {
			res, _, err := w.Query(ops[i].q).Execute(e.ctx)
			if err != nil {
				return err
			}
			want = &res
			byText[ops[i].text] = want
		}
		ops[i].want = want
	}
	return nil
}

// addResults sums two results of the same query: grand totals add, group
// rows merge by member tuple and stay in ascending member order.
func addResults(a, b mdhf.Result) mdhf.Result {
	out := mdhf.Result{Aggregate: a.Aggregate}
	out.Aggregate.Add(b.Aggregate)
	if a.Groups == nil && b.Groups == nil {
		return out
	}
	rows := append(append([]mdhf.GroupRow{}, a.Groups...), b.Groups...)
	sort.SliceStable(rows, func(i, j int) bool { return lessMembers(rows[i].Members, rows[j].Members) })
	for _, r := range rows {
		if n := len(out.Groups); n > 0 && !lessMembers(out.Groups[n-1].Members, r.Members) {
			out.Groups[n-1].Agg.Add(r.Agg)
			continue
		}
		out.Groups = append(out.Groups, mdhf.GroupRow{Members: append([]int(nil), r.Members...), Agg: r.Agg})
	}
	return out
}

func lessMembers(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// ingestOracle answers "what may this query return while appends land":
// a query admitted after k batches were acknowledged and finished before
// batch k' began must equal the base result plus the contributions of the
// first j batches for some k <= j <= k'. Batches only touch the newest
// month, so every query that excludes it has one answer.
type ingestOracle struct {
	prefix map[string][]mdhf.Result // text -> result after j batches, j = 0..len(batches)
}

func newIngestOracle(e *env, ops []op, batches [][]mdhf.FactRow) (*ingestOracle, error) {
	td := e.star.DimIndex(schema.DimTime)
	newest := e.star.Dims[td].LeafCard() - 1
	tables := make([]*mdhf.FactTable, len(batches))
	for b, rows := range batches {
		tables[b] = tableOf(e.star, rows)
	}
	o := &ingestOracle{prefix: make(map[string][]mdhf.Result)}
	for i := range ops {
		if _, ok := o.prefix[ops[i].text]; ok {
			continue
		}
		d := &e.star.Dims[td]
		if p, ok := ops[i].q.PredOnDim(td); ok && d.Ancestor(d.Leaf(), newest, p.Level) != p.Member {
			o.prefix[ops[i].text] = nil // static: the appended month is excluded
			continue
		}
		pre := make([]mdhf.Result, len(batches)+1)
		pre[0] = *ops[i].want
		for b, t := range tables {
			part, err := mdhf.ScanGroupedAggregate(t, ops[i].q)
			if err != nil {
				return nil, err
			}
			pre[b+1] = addResults(pre[b], part)
		}
		o.prefix[ops[i].text] = pre
	}
	return o, nil
}

// matches reports whether got is a legal answer for the op given that lo
// batches were acknowledged before it started and hi had begun when it
// finished.
func (o *ingestOracle) matches(p *op, got mdhf.Result, lo, hi int) bool {
	pre := o.prefix[p.text]
	if pre == nil {
		return reflect.DeepEqual(got, *p.want)
	}
	for j := lo; j <= hi && j < len(pre); j++ {
		if reflect.DeepEqual(got, pre[j]) {
			return true
		}
	}
	return false
}

// tableOf turns append rows into a fact table the scan oracle can read.
func tableOf(star *mdhf.Star, rows []mdhf.FactRow) *mdhf.FactTable {
	t := &mdhf.FactTable{Star: star, Dims: make([][]int32, len(star.Dims))}
	for _, r := range rows {
		for d := range t.Dims {
			t.Dims[d] = append(t.Dims[d], r.Leaves[d])
		}
		t.UnitsSold = append(t.UnitsSold, r.UnitsSold)
		t.DollarSales = append(t.DollarSales, r.DollarSales)
		t.Cost = append(t.Cost, r.Cost)
	}
	return t
}
