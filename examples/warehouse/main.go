// Warehouse: a full on-disk round trip through the serving façade —
// Open writes the MDHF-fragmented fact file and bitmap files to a
// temporary directory on first execution, name-level queries resolve
// through the dimension tables' per-level name maps, and every execution
// reports the physical I/O counts that the paper's Table 3 models
// analytically.
package main

import (
	"context"
	"fmt"
	"log"

	mdhf "repro"
)

func main() {
	ctx := context.Background()
	star := mdhf.APB1Scaled(60)

	// WithOnDisk("") stores the warehouse in a temporary directory owned
	// by the handle (removed on Close); WithWorkers(0) serves on one
	// worker per CPU.
	w, err := mdhf.Open(ctx, mdhf.Config{
		Star:          star,
		Fragmentation: "time::month, product::group",
		Seed:          42,
	}, mdhf.WithOnDisk(""), mdhf.WithWorkers(0))
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()

	spec := w.Fragmentation()
	fmt.Printf("warehouse: %d rows in %d fragments, %d surviving bitmaps\n",
		star.N(), spec.NumFragments(), spec.SurvivingBitmaps(w.Indexes()))

	// Dimension tables resolve names to members.
	fmt.Printf("dimension tables: %.2f MB (the paper: \"only occupy 1 MB\")\n", float64(w.Catalog().Bytes())/(1<<20))
	fmt.Printf("executing with %d fragment workers\n\n", w.Workers())

	// The in-memory oracle for verification.
	table, err := w.Table(ctx)
	if err != nil {
		log.Fatal(err)
	}

	for _, text := range []string{
		"time.month = 'MONTH-0003', product.group = 'GROUP-0012'",
		"product.code = 'CODE-0077', time.quarter = 'QUARTER-0002'",
		"customer.store = 'STORE-0007'",
	} {
		q, err := w.QueryText(text)
		if err != nil {
			log.Fatal(err)
		}
		agg, st, err := q.Execute(ctx)
		if err != nil {
			log.Fatal(err)
		}
		want := mdhf.ScanAggregate(table, q.Query())
		status := "OK"
		if agg.Count != want.Count || agg.DollarSales != want.DollarSales {
			status = "MISMATCH"
		}
		fmt.Printf("%s\n", text)
		fmt.Printf("  class %-11s %6d hits  sum(DollarSales)=%-12d [verify: %s]\n",
			q.Class(), agg.Count, agg.DollarSales, status)
		fmt.Printf("  physical I/O on the %s backend: %d fact pages in %d ops, %d bitmap pages in %d ops\n\n",
			st.Backend, st.IO.FactPages, st.IO.FactIOs, st.IO.BitmapPages, st.IO.BitmapIOs)
	}
}
