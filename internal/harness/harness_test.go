package harness

import (
	"bytes"
	"strings"
	"testing"

	"slacksim/internal/core"
)

func TestTable2Small(t *testing.T) {
	r, err := NewRunner(Options{
		Workloads:   []string{"ocean"},
		TargetCores: 4,
		Verify:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Table2(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ocean") || !strings.Contains(out, "KIPS") {
		t.Fatalf("unexpected table: %s", out)
	}
	t.Logf("\n%s", out)
}

// TestDriverSelection: the reference column runs the serial engine, and
// the paper's one-host-core baseline is the parallel engine at K = 1.
func TestDriverSelection(t *testing.T) {
	r, err := NewRunner(Options{
		Workloads:   []string{"ocean"},
		HostCores:   []int{1},
		TargetCores: 4,
		Verify:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := r.SerialReference("ocean")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Driver != "serial" || ref.Result.Groups != 0 {
		t.Errorf("reference column: driver %q, %d groups; want serial, 0", ref.Driver, ref.Result.Groups)
	}
	base, err := r.Baseline("ocean")
	if err != nil {
		t.Fatal(err)
	}
	if base.Result.Groups != 1 {
		t.Errorf("1-host-core column ran %d groups, want 1", base.Result.Groups)
	}
}

func TestFigure8Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	r, err := NewRunner(Options{
		Workloads:   []string{"ocean"},
		Schemes:     []core.Scheme{core.SchemeCC, core.SchemeS9, core.SchemeSU},
		HostCores:   []int{2},
		TargetCores: 4,
		Verify:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	data, err := r.Figure8(&buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", buf.String())
	for _, s := range []string{"CC", "S9", "SU"} {
		if data.Speedup["ocean"][s][2] <= 0 {
			t.Fatalf("missing speedup for %s", s)
		}
	}
}

func TestTable3Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	r, err := NewRunner(Options{
		Workloads:   []string{"ocean"},
		HostCores:   []int{2},
		TargetCores: 4,
		Verify:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Table3(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", buf.String())
}
