package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, metric) comparison.
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictMissing    = "MISSING or 0 in one file"
)

// worsening is how much worse b is than a, as a share of a (negative =
// better), in the metric's own direction. a is never 0: compareResults
// refuses a metric that is missing or 0 on either side.
func worsening(m metricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// wide reports whether one side's own repetitions spread — (max - min) /
// median — wider than the bound, so that the runs cannot tell "unchanged"
// from "changed by less than the noise".
func wide(m metricSpec, s metricSummary) bool {
	return s.Median != 0 && s.Max-s.Min > m.Slack && (s.Max-s.Min)/s.Median > m.Bound
}

// judge applies the bound logic: a median worse than the bound is a
// regression; otherwise, when either side spreads wider than the bound,
// the pair is unresolved; otherwise a median better than the bound is an
// improvement.
func judge(m metricSpec, a, b metricSummary) (string, float64) {
	worse := worsening(m, a.Median, b.Median)
	switch {
	case worse > m.Bound && math.Abs(b.Median-a.Median) > m.Slack:
		return verdictRegression, worse
	case wide(m, a) || wide(m, b):
		return verdictUnresolved, worse
	case worse < -m.Bound:
		return verdictImproved, worse
	}
	return verdictUnchanged, worse
}

func readResult(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative difference and the bound. It returns 1 if any metric
// regressed, any fail_ratio rose, or a workload or metric is missing from
// (or 0 in) either file — no end-to-end metric is ever 0 in a good run.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b resultFile) int {
	code := 0
	if a.Host.CPU != b.Host.CPU || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS || a.Host.Seconds != b.Host.Seconds {
		fmt.Fprintf(w, "note: host blocks differ (%q x%d %gs vs %q x%d %gs); the comparison is not like for like\n",
			a.Host.CPU, a.Host.GOMAXPROCS, a.Host.Seconds, b.Host.CPU, b.Host.GOMAXPROCS, b.Host.Seconds)
	}
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, ws := range workloads {
		ra, okA := a.Workloads[ws.name]
		rb, okB := b.Workloads[ws.name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-14s missing from one file\n", ws.name)
			code = 1
			continue
		}
		verdict := verdictUnchanged
		if rb.FailRatio > ra.FailRatio {
			verdict, code = verdictRegression, 1
		}
		fmt.Fprintf(w, "%-14s %-18s %14.6f %14.6f %9s %7s  %s\n", ws.name, "fail_ratio", ra.FailRatio, rb.FailRatio, "", "0", verdict)
		for _, m := range endToEndOf(&ws) {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			if va.Median == 0 || vb.Median == 0 {
				fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %9s %6.0f%%  %s\n", ws.name, m.Name, va.Median, vb.Median, "", 100*m.Bound, verdictMissing)
				code = 1
				continue
			}
			verdict, worse := judge(m, va, vb)
			if verdict == verdictRegression {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				ws.name, m.Name, va.Median, vb.Median, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
