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

func TestDriverSelection(t *testing.T) {
	auto := Options{}
	auto.fillDefaults()
	for hc, want := range map[int]string{0: "serial", 1: "fused", 2: "parallel", 8: "parallel"} {
		if got := auto.DriverFor(hc); got != want {
			t.Errorf("auto DriverFor(%d) = %q, want %q", hc, got, want)
		}
	}
	forced := Options{Driver: "parallel"}
	forced.fillDefaults()
	if got := forced.DriverFor(1); got != "parallel" {
		t.Errorf("forced DriverFor(1) = %q, want parallel", got)
	}
	if got := forced.DriverFor(0); got != "serial" {
		t.Errorf("forced DriverFor(0) = %q, want serial (reference engine)", got)
	}
	if _, err := NewRunner(Options{Driver: "warp"}); err == nil {
		t.Error("NewRunner accepted driver \"warp\"")
	}

	// A 1-host-core run under auto must execute (and record) the fused
	// driver end to end.
	r, err := NewRunner(Options{
		Workloads:   []string{"ocean"},
		HostCores:   []int{1},
		TargetCores: 4,
		Verify:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := r.RunOne("ocean", core.SchemeCC, 1)
	if err != nil {
		t.Fatal(err)
	}
	if run.Driver != "fused" {
		t.Errorf("Run.Driver = %q, want fused", run.Driver)
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
