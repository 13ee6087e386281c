// Package stats provides the small numeric and formatting helpers the
// experiment harness uses to reproduce the paper's tables and figures:
// means, relative errors, and fixed-width ASCII tables.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// HarmonicMean returns the harmonic mean of xs (the aggregation the paper
// uses for Figure 8e). Non-positive values are rejected with NaN.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// RelErr returns |x-ref|/ref (the paper's Table 3 metric: relative error in
// execution time versus the cycle-by-cycle reference).
func RelErr(x, ref float64) float64 {
	if ref == 0 {
		return math.NaN()
	}
	return math.Abs(x-ref) / math.Abs(ref)
}

// Table renders rows as a fixed-width ASCII table. The first row is the
// header.
type Table struct {
	rows [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row, formatting each value with %v (floats as %.2f).
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	if len(t.rows) == 0 {
		return ""
	}
	cols := 0
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, r := range t.rows {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", width[i], c)
			}
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i := 0; i < cols; i++ {
				if i == 0 {
					b.WriteString(strings.Repeat("-", width[i]))
				} else {
					b.WriteString("  " + strings.Repeat("-", width[i]))
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
