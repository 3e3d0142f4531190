package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readSuite(path string) (suiteFile, error) {
	var f suiteFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// samples collects metric values per workload from a file's untraced
// runs.
func (f suiteFile) samples() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// verdict classifies the move from a to b against a metric's bound.
// The change is "regressed" when b's median is worse than a's by more
// than the bound, unless either side's own run-to-run spread is wider
// than the bound: then the files cannot resolve a move of that size
// and the pair is "unresolved" rather than unchanged or regressed.
func verdict(better string, bound float64, a, b []float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if better == "higher" {
		worse = (ma - mb) / ma
	}
	switch {
	case worse <= bound:
		return worse, "ok"
	case spread(a) > bound || spread(b) > bound:
		return worse, "unresolved"
	}
	return worse, "regressed"
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, their spreads, the change and the verdict, and reports
// whether anything regressed.
func compareFiles(w io.Writer, manifestPath, pathA, pathB string) (regressed bool, err error) {
	man, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	fa, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	sa, sb := fa.samples(), fb.samples()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian a\tspread a\tmedian b\tspread b\tworse by\tbound\tverdict")
	for _, wl := range man.Workloads {
		for _, m := range man.EndToEnd {
			a, b := sa[wl.Name][m.Name], sb[wl.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			worse, v := verdict(m.Better, *m.Bound, a, b)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.1f%%\t%.5g\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, median(a), 100*spread(a), median(b), 100*spread(b), 100*worse, 100**m.Bound, v)
		}
	}
	return regressed, tw.Flush()
}
