// Command mdhfcost prints the analytical results of the MDHF study:
// Table 1 (hierarchical encoding), Table 3 (I/O characteristics of 1STORE),
// Table 6 (fragmentation parameters), the bitmap inventory, and ad-hoc cost
// estimates for arbitrary fragmentation/query pairs.
//
// Usage:
//
//	mdhfcost -table all
//	mdhfcost -frag "time::month, product::group" -query "customer::store=7"
//	mdhfcost -frag "time::month" -query "customer::store=7" -query "product::code=11" -workers 4
//	mdhfcost -frag "time::month, product::group" -query "product::code=11" -disks 100 -scheme gap
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	mdhf "repro"
)

// queryList collects repeated -query flags.
type queryList []string

func (q *queryList) String() string { return fmt.Sprint(*q) }
func (q *queryList) Set(v string) error {
	*q = append(*q, v)
	return nil
}

func main() {
	table := flag.String("table", "", "table to print: 1, 3, 6, bitmaps, or all")
	fragText := flag.String("frag", "", "fragmentation, e.g. \"time::month, product::group\"")
	var queries queryList
	flag.Var(&queries, "query", "query, e.g. \"customer::store=7\" (repeatable)")
	workers := flag.Int("workers", 0, "parallel estimate workers for repeated -query flags (<1 = one per CPU)")
	groupBy := flag.String("groupby", "", "GROUP BY levels appended to every -query, e.g. \"time::month, product::family\"")
	disks := flag.Int("disks", 0, "also model response time on this many declustered disks (per-disk queue model)")
	scheme := flag.String("scheme", "rr", "disk placement scheme: rr (round-robin) or gap")
	access := flag.Duration("access", 12*time.Millisecond, "per-disk access time for the queue model (Table 4: seek + settle)")
	flag.Parse()

	if *table == "" && *fragText == "" {
		*table = "all"
	}
	switch *table {
	case "1":
		printTable1()
	case "3":
		printTable3()
	case "6":
		printTable6()
	case "bitmaps":
		printBitmaps()
	case "all":
		printTable1()
		fmt.Println()
		printTable3()
		fmt.Println()
		printTable6()
		fmt.Println()
		printBitmaps()
	case "":
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}

	if *fragText != "" {
		if err := printEstimates(*fragText, queries, *groupBy, *workers, *disks, *scheme, *access); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func printTable1() {
	rows, pattern := mdhf.Table1()
	fmt.Println("Table 1: Hierarchy representation in encoded bitmap join indices (PRODUCT)")
	fmt.Printf("%-10s %15s %16s %6s %6s\n", "level", "#total elements", "#within parent", "bits", "paper")
	for _, r := range rows {
		fmt.Printf("%-10s %15d %16d %6d %6d\n", r.Level, r.TotalElements, r.WithinParent, r.Bits, r.PaperBits)
	}
	fmt.Printf("sample bit pattern: %s\n", pattern)
}

func printTable3() {
	cols := mdhf.Table3()
	fmt.Println("Table 3: I/O characteristics for query 1STORE")
	fmt.Printf("%-28s %16s %16s\n", "", cols[0].Label, cols[1].Label)
	fmt.Printf("%-28s %16s %16s\n", "fragmentation", cols[0].Fragmentation, cols[1].Fragmentation)
	fmt.Printf("%-28s %16d %16d\n", "#fragments to process", cols[0].Cost.Fragments, cols[1].Cost.Fragments)
	fmt.Printf("%-28s %16d %16d\n", "  paper", cols[0].PaperFragments, cols[1].PaperFragments)
	fmt.Printf("%-28s %16d %16d\n", "#fact table I/O [pages]", cols[0].Cost.FactPages, cols[1].Cost.FactPages)
	fmt.Printf("%-28s %16d %16d\n", "  paper", cols[0].PaperFactIO, cols[1].PaperFactIO)
	fmt.Printf("%-28s %16d %16d\n", "#bitmap I/O [pages]", cols[0].Cost.BitmapPages, cols[1].Cost.BitmapPages)
	fmt.Printf("%-28s %16d %16d\n", "  paper", cols[0].PaperBitmapIO, cols[1].PaperBitmapIO)
	fmt.Printf("%-28s %16.0f %16.0f\n", "total I/O size [MB]", cols[0].Cost.TotalMB(), cols[1].Cost.TotalMB())
	fmt.Printf("%-28s %16.0f %16.0f\n", "  paper", cols[0].PaperTotalMB, cols[1].PaperTotalMB)
}

func printTable6() {
	fmt.Println("Table 6: Fragmentation parameters for experiment 3")
	fmt.Printf("%-35s %12s %22s\n", "fragmentation", "#fragments", "bitmap frag [pages]")
	for _, r := range mdhf.Table6() {
		fmt.Printf("%-35s %12d %12.2f (paper %.2f)\n", r.Fragmentation, r.Fragments, r.BitmapFragPages, r.PaperBitmapFragPages)
	}
}

func printBitmaps() {
	inv := mdhf.Bitmaps()
	fmt.Println("Bitmap inventory (Sections 3.2, 4.2)")
	fmt.Printf("maximum bitmaps:                 %d (paper 76)\n", inv.MaxBitmaps)
	fmt.Printf("surviving under FMonthGroup:     %d (paper 32)\n", inv.SurvivingUnderFMonthGroup)
}

// printEstimates opens an analysis-only Warehouse (no fact data is ever
// generated) and explains every -query under the fragmentation, fanning
// the analyses out over the warehouse's shared worker pool and printing
// the results in flag order. With -disks the warehouse models the
// declustered placement and each Explain carries the per-disk queue
// response estimate.
func printEstimates(fragText string, queryTexts []string, groupBy string, workers, disks int, schemeName string, access time.Duration) error {
	ctx := context.Background()
	opts := []mdhf.Option{mdhf.WithWorkers(workers)}
	sch := mdhf.RoundRobin
	if disks > 0 {
		switch schemeName {
		case "rr", "round-robin":
		case "gap", "gap-round-robin":
			sch = mdhf.GapRoundRobin
		default:
			return fmt.Errorf("unknown scheme %q (want rr or gap)", schemeName)
		}
		opts = append(opts, mdhf.WithDisks(disks, sch), mdhf.WithIODelay(access))
	}
	w, err := mdhf.Open(ctx, mdhf.Config{Star: mdhf.APB1(), Fragmentation: fragText}, opts...)
	if err != nil {
		return err
	}
	defer w.Close()
	spec := w.Fragmentation()
	if len(queryTexts) == 0 {
		fmt.Printf("%s: %d fragments, %.2f-page bitmap fragments\n",
			spec, spec.NumFragments(), spec.BitmapFragmentPages())
		return nil
	}
	qs := make([]mdhf.Query, len(queryTexts))
	for i, text := range queryTexts {
		if groupBy != "" {
			text += " group by " + groupBy
		}
		if qs[i], err = mdhf.ParseQuery(w.Star(), text); err != nil {
			return err
		}
	}
	ests, err := w.ExplainAll(ctx, qs)
	if err != nil {
		return err
	}
	fmt.Printf("fragmentation:  %s\n", spec)
	for i, e := range ests {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("query:          %s  (class %s, %s)\n", mdhf.FormatQuery(w.Star(), qs[i]), e.Class, e.Cost.Class)
		fmt.Printf("fragments:      %d of %d\n", e.Cost.Fragments, spec.NumFragments())
		if len(qs[i].GroupBy) > 0 {
			path := "per-row fallback"
			if e.Cost.GroupAligned {
				path = "fragment-aligned (constant key per fragment, no per-row work)"
			}
			fmt.Printf("groups:         ~%d expected, %s; grouping adds no I/O\n", e.Cost.Groups, path)
		}
		fmt.Printf("bitmaps/frag:   %d\n", e.Cost.BitmapsPerFragment)
		fmt.Printf("fact I/O:       %d pages in %d ops\n", e.Cost.FactPages, e.Cost.FactIOs)
		fmt.Printf("bitmap I/O:     %d pages in %d ops\n", e.Cost.BitmapPages, e.Cost.BitmapIOs)
		fmt.Printf("total:          %.1f MB\n", e.Cost.TotalMB())
		if e.Note != "" {
			fmt.Printf("note:           %s\n", e.Note)
		}
		if disks > 0 {
			r := e.Response
			fmt.Printf("on %d disks (%s, staggered): %.1f s response, %d disks used, bottleneck %.0f of %d I/Os, imbalance %.2f\n",
				disks, sch, r.Response.Seconds(), r.DisksUsed, r.BottleneckIOs, r.Cost.TotalIOs(), r.Imbalance)
		}
	}
	return nil
}
