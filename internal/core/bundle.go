package core

// Post-mortem crash bundles: when a run fails (SimError, StallError,
// MaxCycles abort with faults, or a remote run that abandoned workers),
// the machine writes a self-contained directory of forensics artifacts —
// merged trace, metrics snapshot, stall report, recovery state, config —
// with a checksummed MANIFEST.json (internal/bundle). The hook lives in
// takeFault, the one choke point every driver (serial, parallel,
// sharded, remote) passes through after its goroutines joined, so
// the snapshot is taken when the single-owner structures are safe to
// read.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"slacksim/internal/bundle"
	"slacksim/internal/introspect"
	"slacksim/internal/trace"
)

// SetBundleDir arms crash-bundle capture: on a failed run the machine
// writes a bundle directory under dir. Empty (the default) disables
// capture. Must be called before Run*.
func (m *Machine) SetBundleDir(dir string) { m.bundleDir = dir }

// BundlePath returns the bundle directory written by the last failure,
// or "" if none was written.
func (m *Machine) BundlePath() string { return m.bundlePath }

// driverName names the execution backend for bundle metadata and
// filenames, derived from the machine's run-mode flags; the group count is
// the run's K (Result.Groups), not a driver of its own.
func (m *Machine) driverName() string {
	switch {
	case m.remote != nil:
		return "remote"
	case m.shards != nil:
		return "sharded"
	case m.serialMode:
		return "serial"
	default:
		return "parallel"
	}
}

// writeFailureBundle captures the bundle for cause. Called post-join
// from takeFault (and from the remote driver's abandoned-worker path),
// so the kernel, GQ, and trace rings are quiescent. Errors are reported
// on stderr, never escalated — forensics must not mask the run's fault.
func (m *Machine) writeFailureBundle(cause error) {
	if m.bundleDir == "" || m.bundleDone || cause == nil {
		return
	}
	m.bundleDone = true

	var files []bundle.File
	addJSON := func(name string, v any) {
		enc, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return
		}
		files = append(files, bundle.File{Name: name, Data: append(enc, '\n')})
	}

	// The failure itself: the report attached to the error when there is
	// one, else a fresh post-join snapshot.
	report := reportFromError(cause)
	if report == nil {
		report = m.snapshot(true, 0)
	}
	addJSON("stall.json", report)
	files = append(files, bundle.File{Name: "error.txt", Data: []byte(cause.Error() + "\n")})

	if m.tracer != nil {
		var buf bytes.Buffer
		if err := m.WriteTraceChrome(&buf); err == nil {
			files = append(files, bundle.File{Name: "trace.json", Data: buf.Bytes()})
		}
	}
	if m.met != nil {
		var buf bytes.Buffer
		introspect.WritePrometheus(&buf, m.met.reg.Snapshot())
		files = append(files, bundle.File{Name: "metrics.prom", Data: buf.Bytes()})
	}
	session := ""
	if m.remote != nil {
		session = m.remote.session
		addJSON("recovery.json", map[string]any{
			"recovery":  m.remoteRecovery(),
			"workers":   m.remoteWorkerReports(),
			"incidents": incidentStrings(m.TraceIncidents()),
		})
	}
	addJSON("config.json", m.cfg)

	meta := bundle.Meta{
		Reason:  cause.Error(),
		Session: session,
		Driver:  m.driverName(),
		Scheme:  m.scheme.String(),
	}
	dir := filepath.Join(m.bundleDir,
		fmt.Sprintf("bundle-%s-%d", m.driverName(), time.Now().UnixNano()))
	path, err := bundle.Write(dir, meta, files)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warning: crash bundle write failed: %v\n", err)
		return
	}
	m.bundlePath = path
}

// reportFromError pulls the forensic snapshot out of a run error.
func reportFromError(err error) *StallReport {
	var se *SimError
	if errors.As(err, &se) {
		return se.Report
	}
	var ste *StallError
	if errors.As(err, &ste) {
		return ste.Report
	}
	return nil
}

// incidentStrings renders incidents for the JSON recovery artifact.
func incidentStrings(ins []trace.Incident) []string {
	out := make([]string, 0, len(ins))
	for _, in := range ins {
		out = append(out, in.String())
	}
	return out
}
