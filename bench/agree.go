package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// agree compares two result sets, one row per workload and end-to-end
// metric, each against the metric's own bound. A row whose run-to-run spread
// (interquartile range over the median, the wider of the two sets) exceeds
// the bound is unresolved: the data cannot tell. Otherwise the medians
// agree when they lie within the bound of each other, and differ when not.
// It reports whether no row differs.
func agree(w io.Writer, a, b *resultSet) bool {
	other := make(map[string]*workloadResult)
	for _, wr := range b.Workloads {
		other[wr.Name] = wr
	}
	same := true
	fmt.Fprintf(w, "%-22s %-22s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "delta", "spread", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := other[wa.Name]
		if !ok || wa.Refused != "" || wb.Refused != "" {
			fmt.Fprintf(w, "%-22s not measured in both sets\n", wa.Name)
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			delta := ratio(sb.Median-sa.Median, sa.Median)
			sp := math.Max(spread(sa.Samples), spread(sb.Samples))
			verdict := "agree"
			switch {
			case sa.N == 0 || sb.N == 0:
				verdict = "unresolved"
			case sp > d.Bound:
				verdict = "unresolved"
			case math.Abs(delta) > d.Bound:
				verdict = "differs"
				same = false
			}
			fmt.Fprintf(w, "%-22s %-22s %12.6g %12.6g %+7.2f%% %7.2f%% %5.0f%%  %s\n",
				wa.Name, d.Name, sa.Median, sb.Median, 100*delta, 100*sp, 100*d.Bound, verdict)
		}
	}
	return same
}
