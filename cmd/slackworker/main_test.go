package main

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"slacksim/internal/asm"
	"slacksim/internal/cache"
	"slacksim/internal/core"
	"slacksim/internal/cpu"
	"slacksim/internal/remote"
	"slacksim/internal/workloads"
)

// TestServeSession drives one real simulation session through the
// worker's accept loop and checks the drain-on-close behavior.
func TestServeSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var errw bytes.Buffer
	serveDone := make(chan error, 1)
	go func() { serveDone <- serve(ln, &errw) }()

	wl, err := workloads.Get("fft")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(wl.Source(1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(prog, core.Config{
		NumCores: 2, CPU: cpu.DefaultConfig(), Cache: cache.DefaultConfig(2),
		RemoteShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Init(m.Image(), 1); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := core.ParseScheme("CC")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunRemoteSharded(scheme, []remote.Transport{conn.(*net.TCPConn)})
	if err != nil {
		t.Fatalf("remote run through slackworker: %v", err)
	}
	if err := wl.Verify(m.Image(), res.Output, 1); err != nil {
		t.Fatalf("verify: %v", err)
	}

	// Closing the listener ends the accept loop; serve must still return
	// (the session above already drained).
	ln.Close()
	if err := <-serveDone; err == nil {
		t.Error("serve returned nil after listener close")
	}
	if !strings.Contains(errw.String(), "done") {
		t.Errorf("worker log missing session completion:\n%s", errw.String())
	}
}
