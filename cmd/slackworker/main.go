// Command slackworker hosts remote memory-hierarchy shards for a
// slacksim parent running with -remote-workers. It accepts TCP
// connections and serves one simulation session per connection: the
// parent ships the shard assignment and cache geometry in its handshake,
// so one worker binary serves any topology. A parent reconnecting after
// a connection failure resumes its session from the checkpoint it
// replays in the handshake, so a long run survives worker restarts.
//
//	slackworker -listen 127.0.0.1:7701
//	slacksim -workload fft -scheme S9 -remote-workers 127.0.0.1:7701
//
// SIGINT/SIGTERM stop the accept loop, let in-flight sessions drain, and
// exit 0. The listener sets SO_REUSEADDR, so a restarted worker (the
// recovery drill: kill -9 and relaunch under the same address) rebinds
// immediately instead of fighting TIME_WAIT.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"

	"slacksim/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "slackworker:", err)
		os.Exit(1)
	}
}

func run(args []string, errw io.Writer) error {
	fs := flag.NewFlagSet("slackworker", flag.ContinueOnError)
	fs.SetOutput(errw)
	listen := fs.String("listen", "127.0.0.1:0", "address to accept slacksim parent connections on")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ln, err := listenReuse(*listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "slackworker: listening on %s\n", ln.Addr())

	var stopping atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigc)
		close(sigc)
	}()
	go func() {
		if _, ok := <-sigc; ok {
			stopping.Store(true)
			fmt.Fprintln(errw, "slackworker: signal — draining sessions")
			ln.Close()
		}
	}()

	err = serve(ln, errw)
	if stopping.Load() {
		return nil
	}
	return err
}

// listenReuse binds with SO_REUSEADDR so a relaunched worker can retake
// an address whose previous owner just died mid-session (lingering
// sockets from the killed process must not block recovery).
func listenReuse(addr string) (net.Listener, error) {
	lc := net.ListenConfig{
		Control: func(network, address string, c syscall.RawConn) error {
			var serr error
			err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
			})
			if err != nil {
				return err
			}
			return serr
		},
	}
	return lc.Listen(context.Background(), "tcp", addr)
}

// serve runs the accept loop, logging each session to errw.
func serve(ln net.Listener, errw io.Writer) error {
	var mu sync.Mutex
	return core.ServeRemoteListener(ln, func(format string, args ...any) {
		mu.Lock()
		fmt.Fprintf(errw, "slackworker: "+format+"\n", args...)
		mu.Unlock()
	})
}
