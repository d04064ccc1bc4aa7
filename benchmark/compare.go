package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// summary is one metric's values over a file's runs of one workload.
type summary struct {
	median float64
	spread float64 // (Q3 - Q1) / median; 0 with fewer than two runs
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method), so the spread here is the spread the
// driver computes.
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(sorted)+1)
		lo := int(pos)
		switch {
		case lo < 1:
			return sorted[0]
		case lo >= len(sorted):
			return sorted[len(sorted)-1]
		}
		return sorted[lo-1] + (pos-float64(lo))*(sorted[lo]-sorted[lo-1])
	}
	return at(0.25), at(0.75)
}

func summarize(runs []*result, name string) (summary, bool) {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.EndToEnd[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	if len(xs) == 0 {
		return summary{}, false
	}
	sort.Float64s(xs)
	s := summary{median: medianOf(xs)}
	if len(xs) >= 2 {
		q1, q3 := quartiles(xs)
		s.spread = ratio(q3-q1, s.median)
	}
	return s, true
}

// compareFiles judges file b against file a (the base): per workload and
// end-to-end metric it prints both medians, b's ratio to a, the bound,
// and a verdict.  "worse" means b's median is worse than a's by more
// than the bound; "unresolved" means either file's own run-to-run
// spread is wider than the bound, so the pair cannot show a difference
// of that size either way; "ok" is the rest.  It returns an error if
// any pairing is worse, so the exit code can gate a change.
func compareFiles(w io.Writer, aPath, bPath string) error {
	a, err := readResultFile(aPath)
	if err != nil {
		return err
	}
	b, err := readResultFile(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base %s: commit %s seed %d, %d run(s) of %d s\n", aPath, a.Header.Commit, a.Header.Seed, a.Header.Runs, a.Header.Seconds)
	fmt.Fprintf(w, "new  %s: commit %s seed %d, %d run(s) of %d s\n", bPath, b.Header.Commit, b.Header.Seed, b.Header.Runs, b.Header.Seconds)
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %9s %6s %8s %8s  %s\n", "workload", "metric", "base median", "new median", "new/base", "bound", "spread a", "spread b", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, d := range endToEndDefs {
			sa, okA := summarize(a.Workloads[wl.name], d.name)
			sb, okB := summarize(b.Workloads[wl.name], d.name)
			if !okA || !okB {
				fmt.Fprintf(w, "%-18s %-20s missing in %s\n", wl.name, d.name, map[bool]string{true: bPath, false: aPath}[okA])
				continue
			}
			change := ratio(sb.median, sa.median) - 1 // share of the base median
			if d.better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case sa.spread > d.bound || sb.spread > d.bound:
				verdict = "unresolved"
			case change > d.bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-18s %-20s %14.4f %14.4f %9.4f %6.2f %7.1f%% %7.1f%%  %s\n",
				wl.name, d.name, sa.median, sb.median, ratio(sb.median, sa.median), d.bound, 100*sa.spread, 100*sb.spread, verdict)
		}
		fmt.Fprintf(w, "%-18s gate time-outs: base %v, new %v\n", wl.name, gateTimeouts(a.Workloads[wl.name]), gateTimeouts(b.Workloads[wl.name]))
	}
	if worse > 0 {
		return fmt.Errorf("%d pairing(s) of workload and metric are worse than their bound", worse)
	}
	return nil
}

func gateTimeouts(runs []*result) []uint64 {
	out := make([]uint64, len(runs))
	for i, r := range runs {
		out[i] = r.GateTimeouts
	}
	return out
}
