package main

import (
	"bytes"
	"net"
	"regexp"
	"strings"
	"testing"

	"slacksim/internal/core"
)

// startWorkerListener serves worker sessions on a loopback listener until
// the test ends — an in-process stand-in for a slackworker process.
func startWorkerListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		core.ServeRemoteListener(ln, nil)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-served
	})
	return ln.Addr().String()
}

var simulatedLine = regexp.MustCompile(`simulated: \d+ cycles total`)

// TestRunRemoteWorkers drives the full CLI against two TCP workers, once
// as -remote-workers addresses and once as -remote-spawn's in-process
// loopback fleet, and checks the simulated end time matches the in-process
// sharded engine. (Committed counts a handful of host-timing-dependent
// post-exit commits, so only the cycle count is compared — same standard
// as the core tests.)
func TestRunRemoteWorkers(t *testing.T) {
	base := []string{"-workload", "fft", "-scheme", "CC", "-cores", "2", "-host", "2"}
	var localOut, errw bytes.Buffer
	if err := run(append(base, "-shards", "2"), &localOut, &errw); err != nil {
		t.Fatalf("local run: %v", err)
	}
	lSim := simulatedLine.FindString(localOut.String())

	addr := startWorkerListener(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"remote-workers", []string{"-remote-workers", addr + "," + addr}},
		{"remote-spawn", []string{"-remote-spawn", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var remoteOut, errw bytes.Buffer
			args := append(append(append([]string(nil), base...), "-metrics"), tc.args...)
			if err := run(args, &remoteOut, &errw); err != nil {
				t.Fatalf("remote run: %v\nstdout:\n%s\nstderr:\n%s", err, remoteOut.String(), errw.String())
			}
			rSim := simulatedLine.FindString(remoteOut.String())
			if rSim == "" || rSim != lSim {
				t.Errorf("remote end time diverges from in-process: %q vs %q", rSim, lSim)
			}
			for _, want := range []string{"verification: PASS", "wire: parent sent"} {
				if !strings.Contains(remoteOut.String(), want) {
					t.Errorf("remote stdout missing %q:\n%s", want, remoteOut.String())
				}
			}
		})
	}
}

func TestRunRemoteFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "fft", "-remote-workers", "x:1", "-remote-spawn", "1"},
		{"-workload", "fft", "-remote-shards", "2"},
		{"-workload", "fft", "-scheme", "serial", "-remote-spawn", "1"},
	} {
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("args %v: expected a usage error", args)
		}
	}
}
