package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"slacksim/internal/core"
	"slacksim/internal/remote"
)

// This file is slacksim's half of the distributed backend: turning
// -remote-workers / -remote-spawn into the worker connections and redial
// hook core.RunRemoteShardedOpts drives.

// workerFleet is the CLI's view of its worker endpoints: the initial
// transports plus the redial hook core.RemoteOptions wants to resume a
// session after a connection failure.
type workerFleet struct {
	transports []remote.Transport
	redial     func(worker int) (remote.Transport, error)
	cleanup    func()
}

// dialWorkers connects to already-running workers (slackworker -listen
// addresses). Redial re-dials the same address — a restarted slackworker
// under the same -listen address picks the session back up. The cleanup
// closes whatever was opened; it is safe after the run has already
// force-closed the connections.
func dialWorkers(addrs []string) (*workerFleet, error) {
	var mu sync.Mutex
	var ts []remote.Transport
	f := &workerFleet{}
	f.cleanup = func() {
		mu.Lock()
		defer mu.Unlock()
		for _, t := range ts {
			t.Close()
		}
	}
	f.redial = func(worker int) (remote.Transport, error) {
		c, err := net.DialTimeout("tcp", addrs[worker], 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("re-dialing worker %s: %w", addrs[worker], err)
		}
		mu.Lock()
		ts = append(ts, c.(remote.Transport))
		mu.Unlock()
		return c.(remote.Transport), nil
	}
	for _, a := range addrs {
		c, err := net.DialTimeout("tcp", a, 10*time.Second)
		if err != nil {
			f.cleanup()
			return nil, fmt.Errorf("dialing worker %s: %w", a, err)
		}
		mu.Lock()
		ts = append(ts, c.(remote.Transport))
		mu.Unlock()
		f.transports = append(f.transports, c.(remote.Transport))
	}
	return f, nil
}

// spawnWorkers serves n in-process worker sessions behind one loopback
// TCP listener and dials them as -remote-workers would, so every wire cost
// is real and Redial resumes a session through the same listener. The
// cleanup hangs up, closes the listener and waits for the sessions to end.
func spawnWorkers(n int) (*workerFleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("-remote-spawn listener: %w", err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = core.ServeRemoteListener(ln, nil) // its error is only that ln closed
	}()
	stop := func() {
		ln.Close()
		<-served
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = ln.Addr().String()
	}
	f, err := dialWorkers(addrs)
	if err != nil {
		stop()
		return nil, err
	}
	hangUp := f.cleanup
	f.cleanup = func() {
		hangUp()
		stop()
	}
	return f, nil
}
