package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMeans(t *testing.T) {
	xs := []float64{1, 2, 4}
	if got := Mean(xs); !almost(got, 7.0/3) {
		t.Errorf("mean = %v", got)
	}
	if got := HarmonicMean(xs); !almost(got, 3/(1+0.5+0.25)) {
		t.Errorf("harmonic mean = %v", got)
	}
	if got := Median(xs); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestMeansEdgeCases(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(HarmonicMean(nil)) || !math.IsNaN(Median(nil)) {
		t.Error("empty inputs must give NaN")
	}
	if !math.IsNaN(HarmonicMean([]float64{1, 0})) {
		t.Error("harmonic mean of zero must be NaN")
	}
}

// TestHarmonicMeanBounds: the harmonic mean lies between min and max and
// never exceeds the arithmetic mean (AM-HM inequality).
func TestHarmonicMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r%1000)+1)
		}
		if len(xs) == 0 {
			return true
		}
		hm, am := HarmonicMean(xs), Mean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return hm >= lo-1e-9 && hm <= hi+1e-9 && hm <= am+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); !almost(got, 0.1) {
		t.Errorf("rel err = %v", got)
	}
	if got := RelErr(90, 100); !almost(got, 0.1) {
		t.Errorf("rel err symmetric = %v", got)
	}
	if !math.IsNaN(RelErr(1, 0)) {
		t.Error("rel err vs zero must be NaN")
	}
}

func TestTable(t *testing.T) {
	var tb Table
	tb.AddRow("name", "value")
	tb.AddRowf("x", 1.5)
	tb.AddRowf("longer", 10)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Fatalf("table lines: %q", out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[1], "---") {
		t.Errorf("header: %q / %q", lines[0], lines[1])
	}
	if !strings.Contains(out, "1.50") {
		t.Errorf("float formatting: %q", out)
	}
	var empty Table
	if empty.String() != "" {
		t.Error("empty table non-empty")
	}
}
