package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostBlock is stamped into every result file: a number is comparable
// only with numbers taken on the same host block.
type hostBlock struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Sleep200us float64 `json:"driver.sleep_200us_actual_us"`
	When       string  `json:"when"`
}

func newHostBlock(seed int64, seconds float64) hostBlock {
	return hostBlock{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(), Seed: seed, Seconds: seconds,
		Sleep200us: sleepCostUs(), When: time.Now().UTC().Format(time.RFC3339),
	}
}

// sleepCostUs is what one simulated 200 us disk access really costs on
// this host: the median of 200 time.Sleep(ioDelay) calls, in microseconds.
func sleepCostUs() float64 {
	us := make([]float64, 200)
	for i := range us {
		t0 := time.Now()
		time.Sleep(ioDelay)
		us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return median(us)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the enclosing checkout without running git;
// a checkout that is not a repository reports "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for ; ; dir = filepath.Dir(dir) {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			ref := strings.TrimSpace(string(head))
			if name, ok := strings.CutPrefix(ref, "ref: "); ok {
				if b, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
					return strings.TrimSpace(string(b))
				}
				return name
			}
			return ref
		}
		if dir == filepath.Dir(dir) {
			return "unknown"
		}
	}
}

// metricSummary is one metric over the repetitions of a result file.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

// workloadReport is one workload's share of a result file.
type workloadReport struct {
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	FailRatio float64                  `json:"fail_ratio"` // failed, shed or wrong operations / attempted; must be 0
	EndToEnd  map[string]metricSummary `json:"end_to_end"`
	PerLayer  map[string]metricSummary `json:"per_layer"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host      hostBlock                 `json:"host"`
	Claim     *string                   `json:"claim"` // this benchmark's own change claims no gain
	Reps      int                       `json:"reps"`
	Workloads map[string]workloadReport `json:"workloads"`
}

func summarizeValues(unit string, vs []float64) metricSummary {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return metricSummary{Unit: unit, Median: median(s), Min: s[0], Max: s[len(s)-1], Values: vs}
}

// runAll runs every workload reps times untraced, then once traced, and
// prints (and optionally writes) the full report. Every run is a child
// process of this binary with the single-workload arguments the pipeline
// uses, so a result file holds exactly the numbers the pipeline would see:
// in one process, a workload that runs after the others inherits their
// heap and measures 15 % slower on cpu_mem. Nothing is printed for a
// workload whose answers were wrong; the exit code is then 1.
func runAll(seed int64, seconds float64, reps int, out string) int {
	file := resultFile{Host: newHostBlock(seed, seconds), Reps: reps, Workloads: map[string]workloadReport{}}
	code := 0
	for _, ws := range workloads {
		rep := workloadReport{EndToEnd: map[string]metricSummary{}, PerLayer: map[string]metricSummary{}}
		values := map[string][]float64{}
		var traced contractLine
		for r := 0; r <= reps; r++ { // the last run is the traced one
			line, err := runChild(ws.name, seed, seconds, r == reps)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			rep.Attempted += line.Attempted
			rep.Failed += line.Failed
			if r == reps {
				traced = line
				break
			}
			for k, v := range line.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		if rep.Failed > 0 {
			fmt.Printf("%-14s WRONG: %d of %d operations failed or returned a wrong answer; no metric reported\n", ws.name, rep.Failed, rep.Attempted)
			code = 1
			file.Workloads[ws.name] = workloadReport{Attempted: rep.Attempted, Failed: rep.Failed, FailRatio: ratio(float64(rep.Failed), float64(rep.Attempted))}
			continue
		}
		specs := endToEndOf(&ws)
		for _, m := range specs {
			rep.EndToEnd[m.Name] = summarizeValues(m.Unit, values[m.Name])
		}
		for _, m := range perLayer {
			rep.PerLayer[m.Name] = summarizeValues(m.Unit, []float64{traced.Metrics[m.Name].Value})
		}
		file.Workloads[ws.name] = rep
		printSummary(os.Stdout, ws.name, specs, rep.EndToEnd, rep.Attempted-traced.Attempted)
		printFailRatio(os.Stdout, ws.name, rep.Attempted, rep.Failed)
		printSummary(os.Stdout, ws.name, perLayer, rep.PerLayer, traced.Attempted)
	}
	if out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.MkdirAll(filepath.Dir(out), 0o755)
		}
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// runChild runs one workload once in a child process and parses the
// result line it prints last. A traced child's span file is kept as
// trace.<workload>.json.
func runChild(workload string, seed int64, seconds float64, traced bool) (contractLine, error) {
	var line contractLine
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace, "--full")
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output() // waits for the child to end
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, fmt.Errorf("%s: no result line (%v): %w", workload, runErr, err)
	}
	if traced && line.Correct {
		if err := os.Rename(traceFile, traceFor(traceFile, workload)); err != nil {
			return line, err
		}
	}
	return line, nil
}

// traceFor names one workload's span file: trace.json -> trace.<workload>.json.
func traceFor(path, workload string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

func printSummary(w io.Writer, name string, specs []metricSpec, vals map[string]metricSummary, ops int) {
	for _, m := range specs {
		v := vals[m.Name]
		fmt.Fprintf(w, "%-14s %-34s %16.4f %-9s min %.4f max %.4f ops=%d\n", name, m.Name, v.Median, m.Unit, v.Min, v.Max, ops)
	}
}

func printFailRatio(w io.Writer, name string, attempted, failed int) {
	fmt.Fprintf(w, "%-14s %-34s %16.4f %-9s failed %d of ops=%d\n", name, "fail_ratio", ratio(float64(failed), float64(attempted)), "ratio", failed, attempted)
}
