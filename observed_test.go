package mdhf

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/frag"
)

// textKeyedMix is the observed mix as it was recorded by canonical text:
// every execution formatted, the first observedQueryCap distinct texts
// kept. The structure-keyed recorder must give exactly this.
func textKeyedMix(w *Warehouse, executed []Query) (QueryMixStats, []WeightedQuery) {
	st := QueryMixStats{ByClass: map[QueryClass]int64{}}
	type rec struct {
		q     Query
		class QueryClass
		count int64
	}
	byText := map[string]*rec{}
	for _, q := range executed {
		class := w.spec.Classify(q)
		st.Total++
		st.ByClass[class]++
		text := frag.Format(w.star, q)
		r := byText[text]
		if r == nil {
			if len(byText) >= observedQueryCap {
				st.Dropped++
				continue
			}
			r = &rec{q: q, class: class}
			byText[text] = r
		}
		r.count++
	}
	st.Queries = []ObservedQuery{}
	texts := make([]string, 0, len(byText))
	var total int64
	for text, r := range byText {
		st.Queries = append(st.Queries, ObservedQuery{Text: text, Class: r.class, Fragments: w.spec.RelevantCount(r.q), Count: r.count})
		texts = append(texts, text)
		total += r.count
	}
	sort.Slice(st.Queries, func(i, j int) bool {
		if st.Queries[i].Count != st.Queries[j].Count {
			return st.Queries[i].Count > st.Queries[j].Count
		}
		return st.Queries[i].Text < st.Queries[j].Text
	})
	sort.Strings(texts)
	var mix []WeightedQuery
	for _, text := range texts {
		r := byText[text]
		mix = append(mix, WeightedQuery{Name: text, Query: r.q, Weight: float64(r.count) / float64(total)})
	}
	return st, mix
}

// distinctQueries returns every query of TinySchema with at most one
// predicate per dimension, at any level, in a seeded order, with and
// without a GROUP BY: far more than observedQueryCap.
func distinctQueries(star *Star, seed int64) []Query {
	qs := []Query{{}}
	for d := range star.Dims {
		var next []Query
		for _, q := range qs {
			next = append(next, q)
			for l, lvl := range star.Dims[d].Levels {
				for m := 0; m < lvl.Card; m++ {
					next = append(next, Query{Preds: append(append([]Pred(nil), q.Preds...), Pred{Dim: d, Level: l, Member: m})})
				}
			}
		}
		qs = next
	}
	gb := []LevelRef{{Dim: 0, Level: 0}}
	for i, n := 0, len(qs); i < n; i += 3 {
		qs = append(qs, Query{Preds: qs[i].Preds, GroupBy: gb})
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// TestObservedMixMatchesTextKeys: over a skewed stream of executions of
// more distinct queries than the mix records, QueryMix and ObservedMix —
// texts, classes, fragment counts, counts, order and drops — are what
// keying the mix by formatted text recorded.
func TestObservedMixMatchesTextKeys(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Table: MustGenerateData(star, 5)}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	pool := distinctQueries(star, 1)
	if len(pool) < 2*observedQueryCap {
		t.Fatalf("%d distinct queries", len(pool))
	}
	rng := rand.New(rand.NewSource(2))
	var executed []Query
	for i := 0; i < 3000; i++ {
		q := pool[rng.Intn(len(pool))]
		if i%2 == 0 {
			q = pool[rng.Intn(40)] // a hot set, so counts and their order differ
		}
		if _, _, err := w.Query(q).Execute(ctx); err != nil {
			t.Fatal(err)
		}
		executed = append(executed, q)
	}
	want, wantMix := textKeyedMix(w, executed)
	if got := w.ServingStats().QueryMix; !reflect.DeepEqual(got, want) {
		t.Fatalf("QueryMix differs from the text-keyed mix: total %d/%d, dropped %d/%d, %d/%d queries",
			got.Total, want.Total, got.Dropped, want.Dropped, len(got.Queries), len(want.Queries))
	}
	if want.Dropped == 0 || len(want.Queries) != observedQueryCap {
		t.Fatalf("the stream never filled the mix: %d recorded, %d dropped", len(want.Queries), want.Dropped)
	}
	if got := w.ObservedMix(); !reflect.DeepEqual(got, wantMix) {
		t.Fatal("ObservedMix differs from the text-keyed mix")
	}
}

// TestObservedMixCap: once observedQueryCap distinct queries are
// recorded, the next new one is only counted as dropped — in Total and
// ByClass, with every recorded entry unchanged — while a recorded query
// still counts.
func TestObservedMixCap(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Table: MustGenerateData(star, 5)}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	pool := distinctQueries(star, 3)
	for _, q := range pool[:observedQueryCap] {
		if _, _, err := w.Query(q).Execute(ctx); err != nil {
			t.Fatal(err)
		}
	}
	full := w.ServingStats().QueryMix
	if full.Dropped != 0 || len(full.Queries) != observedQueryCap {
		t.Fatalf("%d recorded, %d dropped", len(full.Queries), full.Dropped)
	}
	extra := pool[observedQueryCap]
	if _, _, err := w.Query(extra).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	got := w.ServingStats().QueryMix
	class := w.spec.Classify(extra)
	if got.Dropped != 1 || got.Total != full.Total+1 || got.ByClass[class] != full.ByClass[class]+1 || !reflect.DeepEqual(got.Queries, full.Queries) {
		t.Fatalf("the %dth distinct query: dropped %d, total %d (was %d), class %v %d (was %d), entries unchanged %v",
			observedQueryCap+1, got.Dropped, got.Total, full.Total, class, got.ByClass[class], full.ByClass[class], reflect.DeepEqual(got.Queries, full.Queries))
	}
	if _, _, err := w.Query(pool[0]).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if got := w.ServingStats().QueryMix; got.Dropped != 1 || got.Queries[0].Count != 2 || got.Queries[0].Text != frag.Format(star, pool[0]) {
		t.Fatalf("a recorded query past the cap: dropped %d, top entry %+v", got.Dropped, got.Queries[0])
	}
}

// TestObservedMixKeepsPredicateOrder: two queries whose predicates differ
// only in order have different texts, so they stay two entries; and a
// recorded query is counted under its entry without being formatted.
func TestObservedMixKeepsPredicateOrder(t *testing.T) {
	ctx := context.Background()
	star := TinySchema()
	w, err := Open(ctx, Config{Star: star, Fragmentation: "time::month, product::group", Table: MustGenerateData(star, 5)}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var qs []Query
	for _, text := range []string{"customer::store=1, time::month=2", "time::month=2, customer::store=1"} {
		p, err := w.QueryText(text)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, p.Query())
		for rep := 0; rep < len(qs); rep++ {
			if _, _, err := p.Execute(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	mix := w.ServingStats().QueryMix.Queries
	if len(mix) != 2 || mix[0].Text != "time::month=2, customer::store=1" || mix[0].Count != 2 || mix[1].Count != 1 {
		t.Fatalf("mix %+v", mix)
	}
	// Recorded first, a query is never formatted again: its entry keeps
	// the text it was recorded under.
	q := qs[0]
	w.mixMu.Lock()
	var buf [64]byte
	w.mix[string(appendKey(buf[:0], q))].text = "recorded text"
	w.mixMu.Unlock()
	if _, _, err := w.Query(q).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	for _, o := range w.ServingStats().QueryMix.Queries {
		if o.Text == frag.Format(star, q) || (o.Text == "recorded text" && o.Count != 2) {
			t.Fatalf("the query was not counted under the entry it was recorded in: %+v", o)
		}
	}
}
