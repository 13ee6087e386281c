package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunTraceMetricsSmoke drives the full CLI on a tiny workload with
// the observability flags on and checks the trace file is a valid Chrome
// trace-event JSON with the promised tracks.
func TestRunTraceMetricsSmoke(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "out.json")
	var out, errw bytes.Buffer
	args := []string{
		"-workload", "fft", "-scheme", "S9", "-cores", "2", "-host", "2",
		"-trace", tracePath, "-metrics", "-timeline",
	}
	if err := run(args, &out, &errw); err != nil {
		t.Fatalf("run: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), errw.String())
	}

	for _, want := range []string{"verification: PASS", "sync overhead:", "metrics:", "slack timeline", "trace: " + tracePath} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(out.String(), "engine.events.processed") {
		t.Errorf("metrics dump missing engine counters:\n%s", out.String())
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(raw, &evs); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("trace file holds no events")
	}
	names := make(map[string]bool)
	phases := make(map[string]bool)
	for _, ev := range evs {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
		if ph, ok := ev["ph"].(string); ok {
			phases[ph] = true
		}
	}
	for _, want := range []string{"slack core 0", "global manager"} {
		if !names[want] {
			t.Errorf("trace missing %q events", want)
		}
	}
	if !phases["C"] || !phases["X"] || !phases["M"] {
		t.Errorf("trace missing phases, got %v", phases)
	}
}

// TestRunSerialScheme keeps the serial reference path working through
// the same entry point.
func TestRunSerialScheme(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-workload", "fft", "-scheme", "serial", "-cores", "2"}, &out, &errw); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "verification: PASS") {
		t.Errorf("stdout:\n%s", out.String())
	}
}

// TestRunFusedDriver drives the engine on one host core through the CLI:
// the run is grouped execution at K = 1 (what RunFused runs) and says so
// on the driver line.
func TestRunFusedDriver(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-workload", "fft", "-scheme", "CC", "-cores", "2", "-host", "1"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errw.String())
	}
	for _, want := range []string{"driver parallel, groups 1", "verification: PASS"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunDriverAutoPicksFused checks -host 1 alone gives one group, with
// no flag asking for it, for an optimistic scheme too.
func TestRunDriverAutoPicksFused(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-workload", "fft", "-scheme", "S9", "-cores", "2", "-host", "1"}, &out, &errw); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errw.String())
	}
	if !strings.Contains(out.String(), "groups 1") {
		t.Errorf("-host 1 did not run one group:\n%s", out.String())
	}
}

// TestRunDriverConflicts pins the flag-validation matrix: the
// configurations with no engine to run them are refused, and -driver is
// no longer a flag.
func TestRunDriverConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "fft", "-driver", "fused"},
		{"-workload", "fft", "-scheme", "serial", "-shards", "2"},
		{"-workload", "fft", "-scheme", "serial", "-remote-spawn", "1"},
		{"-workload", "fft", "-shards", "2", "-remote-spawn", "2"},
	} {
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("%v: expected an error", args)
		}
	}
}

// TestRunBadScheme reports parse errors instead of exiting.
func TestRunBadScheme(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-workload", "fft", "-scheme", "bogus"}, &out, &errw); err == nil {
		t.Fatal("expected an error for a bogus scheme")
	}
}

// TestRunWatchdogFailureForensics drives a deadlocking program through the
// CLI: the run must fail (nonzero exit), print the failure cause, and dump
// a forensic report naming the held lock.
func TestRunWatchdogFailureForensics(t *testing.T) {
	progPath := filepath.Join(t.TempDir(), "deadlock.s")
	src := "main:\n li a0, 8192\n syscall 5\n li a0, 8192\n syscall 5\n li a0, 0\n syscall 0\n"
	if err := os.WriteFile(progPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	err := run([]string{"-prog", progPath, "-cores", "1", "-scheme", "S9", "-stall-timeout", "2s"}, &out, &errw)
	if err == nil {
		t.Fatalf("deadlocked run succeeded\nstdout:\n%s", out.String())
	}
	for _, want := range []string{"run FAILED", "watchdog", "owner=c0", "core 0:"} {
		if !strings.Contains(errw.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errw.String())
		}
	}
}

// TestRunAbortForensicsJSON checks the -forensics json rendering on a
// cycle-limit abort: stderr must carry a machine-readable snapshot.
func TestRunAbortForensicsJSON(t *testing.T) {
	progPath := filepath.Join(t.TempDir(), "spin.s")
	if err := os.WriteFile(progPath, []byte("main:\n j main\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	err := run([]string{"-prog", progPath, "-cores", "1", "-scheme", "SU", "-max-cycles", "20000", "-forensics", "json"}, &out, &errw)
	if err == nil {
		t.Fatal("aborted run reported success")
	}
	if !strings.Contains(out.String(), "ABORTED") {
		t.Errorf("stdout missing abort status:\n%s", out.String())
	}
	var report map[string]any
	if jerr := json.Unmarshal(errw.Bytes(), &report); jerr != nil {
		t.Fatalf("stderr is not a JSON forensic report: %v\n%s", jerr, errw.String())
	}
	cores, ok := report["cores"].([]any)
	if !ok || len(cores) != 1 {
		t.Fatalf("report cores = %v", report["cores"])
	}
}

// TestRunAuditFlagClean keeps the -audit flag cheap and quiet on a healthy
// run.
func TestRunAuditFlagClean(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-workload", "fft", "-scheme", "S9", "-cores", "2", "-host", "2", "-audit"}, &out, &errw); err != nil {
		t.Fatalf("audited run failed: %v\nstderr:\n%s", err, errw.String())
	}
	if !strings.Contains(out.String(), "verification: PASS") {
		t.Errorf("stdout:\n%s", out.String())
	}
}
