// Command bench is the repository's one serving benchmark: six named
// workloads on one dataset / disk / latency baseline, eight end-to-end
// metrics with regression bounds, and a traced run that adds the
// per-layer metrics. See README.md and ../BENCHMARK.json.
//
//	bash bench/run.sh --workload cpu_mem --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --reps 3 --out bench/out/run1.json      (all six, plus the traced runs)
//	bash bench/run.sh --compare run1.json run2.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

const defaultSeconds = 20

// Paths are relative to the checkout root, where run.sh starts the binary.
var (
	scratchDir = filepath.Join(".bench_build", "scratch") // on-disk stores, removed when the run ends
	traceFile  = filepath.Join("bench", "out", "trace.json")
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated data, queries and append batches")
	seconds := fs.Float64("seconds", defaultSeconds, "length of each measured phase")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace.json")
	reps := fs.Int("reps", 1, "with -workload all: repetitions; median, min and max are reported")
	out := fs.String("out", "", "with -workload all: write the result file here")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	full := fs.Bool("full", false, "put the workload's own end-to-end metrics (ingest_mixed: the append side) in the result line too; -out runs use it, the pipeline does not")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || *reps < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -reps must be positive")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *reps, *out)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	e, err := newEnv(context.Background(), *seed, scratchDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.close()
	var res runResult
	specs, lineSpecs := endToEndOf(w), endToEnd
	if *full {
		lineSpecs = specs
	}
	if *trace != 0 {
		specs, lineSpecs = perLayer, perLayer
		res, err = runTraced(e, w, *seconds, traceFile)
	} else {
		res, err = runEndToEnd(e, w, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if res.Failed == 0 {
		one := map[string]metricSummary{}
		for _, m := range specs {
			one[m.Name] = summarizeValues(m.Unit, []float64{res.Metrics[m.Name]})
		}
		printSummary(os.Stdout, w.name, specs, one, res.Attempted)
		printFailRatio(os.Stdout, w.name, res.Attempted, res.Failed)
	}
	return printContractLine(lineSpecs, res)
}

// contractLine is the one-line JSON result the driver reads from the last
// line of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine prints the result line. A run with a wrong or failed
// operation prints no metric and exits 1.
func printContractLine(specs []metricSpec, res runResult) int {
	line := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	if line.Correct {
		for _, m := range specs {
			line.Metrics[m.Name] = contractValue{Value: res.Metrics[m.Name], Unit: m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}
