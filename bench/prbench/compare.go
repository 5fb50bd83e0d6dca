package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// -compare: two result sets of the same benchmark, a row per workload and
// end-to-end metric. B regresses a row when its median is worse than A's
// by more than the metric's bound. A row whose run-to-run spread exceeds
// the bound cannot be told either way and reads "unresolved", unless every
// run of B is better than every run of A.

// sample is one workload × metric cell of a result set.
type sample map[string]map[string][]float64

func readResults(path string) (sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := sample{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace || !rec.Correct {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints the table and reports whether any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA q1\tA median\tA q3\tB q1\tB median\tB q3\tchange\tbound\tverdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) < 3 || len(vb) < 3 {
				return false, fmt.Errorf("%s %s: %d and %d runs; each set needs at least 3", wl.Name, d.Name, len(va), len(vb))
			}
			verdict, change := judge(d, va, vb)
			if verdict == "REGRESSED" {
				regressed = true
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.5g\t%.5g\t%.5g\t%.5g\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, d.Name, a1, median(va), a3, b1, median(vb), b3, 100*change, 100*d.Bound, verdict)
		}
	}
	return regressed, tw.Flush()
}

// judge applies one metric's bound. change is B's median relative to A's,
// positive when worse.
func judge(d metricDef, va, vb []float64) (verdict string, change float64) {
	ma, mb := median(va), median(vb)
	change = (mb - ma) / ma
	if d.Better == "higher" {
		change = -change
	}
	if spread(va) > d.Bound || spread(vb) > d.Bound {
		if !allBetter(d, va, vb) {
			return "unresolved", change
		}
	}
	if change > d.Bound {
		return "REGRESSED", change
	}
	return "ok", change
}

// allBetter reports whether every run of B beats every run of A.
func allBetter(d metricDef, va, vb []float64) bool {
	sa, sb := sorted(va), sorted(vb)
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
