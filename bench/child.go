package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"slacksim/internal/asm"
	"slacksim/internal/cache"
	"slacksim/internal/core"
	"slacksim/internal/metrics"
	"slacksim/internal/remote"
	"slacksim/internal/trace"
	"slacksim/internal/workloads"
)

// childReq asks a child process for one simulation: set up the machine, run
// it, verify the functional result.
type childReq struct {
	Workload  string `json:"workload"` // spec name, for the spans
	Program   string `json:"program"`
	Scale     int    `json:"scale"`
	Scheme    string `json:"scheme"`
	Driver    string `json:"driver"`
	Oracle    bool   `json:"oracle"` // run the serial engine on the driver's geometry
	Traced    bool   `json:"traced"` // EnableMetrics + EnableTrace
	MaxCycles int64  `json:"max_cycles"`
}

// fingerprint is every simulated statistic a speed-only change must leave
// alone. Committed instructions are not part of it: cores commit a few
// host-timing-dependent instructions after the exit event on every driver.
type fingerprint struct {
	EndTime    int64         `json:"end_time"`
	ROICycles  int64         `json:"roi_cycles"`
	ExitCode   int64         `json:"exit_code"`
	OutputHash string        `json:"output_sha256"`
	L2         cache.L2Stats `json:"l2"`
}

// childRes is what one simulation measured. Seconds are host time.
type childRes struct {
	Err       string `json:"err,omitempty"`        // set-up or engine error
	VerifyErr string `json:"verify_err,omitempty"` // functional result rejected

	AssembleS float64 `json:"assemble_s"`
	MachineS  float64 `json:"machine_s"`
	InitS     float64 `json:"init_s"`
	SetupS    float64 `json:"setup_s"` // the three above, end to end
	VerifyS   float64 `json:"verify_s"`
	WallS     float64 `json:"wall_s"` // inside Run*
	CPUS      float64 `json:"cpu_s"`  // process user+sys inside Run*

	Committed      int64       `json:"committed"` // ROI instructions, all cores
	Aborted        bool        `json:"aborted"`
	TimeWarps      int64       `json:"time_warps"`
	CoherenceWarps int64       `json:"coherence_warps"`
	Sim            fingerprint `json:"sim"`

	// Counts read from the public Result, CoreStats and Kernel fields.
	CoreCycles  int64  `json:"core_cycles"` // ROI cycles summed over cores
	Skipped     int64  `json:"skipped"`     // of which fast-forwarded, not ticked
	L1DMisses   int64  `json:"l1d_misses"`
	Syscalls    int64  `json:"syscalls"`
	Retries     int64  `json:"retries"`
	KernelCalls int64  `json:"kernel_calls"`
	Parks       int64  `json:"parks"`
	HostAllocs  uint64 `json:"host_allocs"`
	HostGCs     uint32 `json:"host_gcs"`

	// Filled by the engine only in a traced run.
	Events       int64                 `json:"events,omitempty"`
	ManagerBusyS float64               `json:"manager_busy_s,omitempty"`
	CoreBusyS    float64               `json:"core_busy_s,omitempty"`
	CoreWaitS    float64               `json:"core_wait_s,omitempty"`
	StragglerTop float64               `json:"straggler_top,omitempty"`
	Wire         *core.RemoteWireStats `json:"wire,omitempty"`

	Spans []span `json:"spans"`
}

// childMain is the body of a child process: it prints one childRes.
func childMain(arg string) int {
	var req childReq
	if err := json.Unmarshal([]byte(arg), &req); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	res := simulate(req)
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	return 0
}

func simulate(req childReq) (res childRes) {
	var sl spanLog
	defer func() { res.Spans = sl.spans }()
	fail := func(err error) childRes {
		res.Err = err.Error()
		return res
	}
	w, err := workloads.Get(req.Program)
	if err != nil {
		return fail(err)
	}
	scheme, err := core.ParseScheme(req.Scheme)
	if err != nil {
		return fail(err)
	}

	setup := sl.begin("setup", req.Workload, 0)
	id := sl.begin("assemble", req.Workload, setup)
	prog, err := asm.Assemble(w.Source(req.Scale), asm.Options{})
	sl.end(id)
	res.AssembleS = sl.seconds(id)
	if err != nil {
		return fail(err)
	}
	id = sl.begin("new_machine", req.Workload, setup)
	m, err := core.NewMachine(prog, machineConfig(req.Driver, req.Oracle, req.MaxCycles))
	sl.end(id)
	res.MachineS = sl.seconds(id)
	if err != nil {
		return fail(err)
	}
	id = sl.begin("init", req.Workload, setup)
	err = w.Init(m.Image(), req.Scale)
	sl.end(id)
	res.InitS = sl.seconds(id)
	sl.end(setup)
	res.SetupS = sl.seconds(setup)
	if err != nil {
		return fail(err)
	}

	if req.Traced {
		m.EnableMetrics(metrics.NewRegistry())
		m.EnableTrace(trace.New())
	}
	run := func() (*core.Result, error) { return m.RunSerial() }
	switch {
	case req.Oracle:
	case req.Driver == "fused":
		run = func() (*core.Result, error) { return m.RunFused(scheme) }
	case req.Driver == "parallel", req.Driver == "sharded":
		run = func() (*core.Result, error) { return m.RunParallel(scheme) }
	case req.Driver == "remote":
		fleet, err := startLoopbackWorkers(memShards)
		if err != nil {
			return fail(err)
		}
		defer fleet.close()
		run = func() (*core.Result, error) {
			return m.RunRemoteShardedOpts(scheme, &core.RemoteOptions{Transports: fleet.transports, Redial: fleet.dial})
		}
	default:
		return fail(fmt.Errorf("unknown driver %q", req.Driver))
	}

	name := "run"
	if req.Oracle {
		name = "oracle"
	}
	id = sl.begin(name, req.Workload, 0)
	cpu0 := processCPU()
	r, err := run()
	res.CPUS = (processCPU() - cpu0).Seconds()
	sl.end(id)
	res.WallS = sl.seconds(id)
	if err != nil {
		return fail(err)
	}

	id = sl.begin("verify", req.Workload, 0)
	if !r.Aborted {
		if err := w.Verify(m.Image(), r.Output, req.Scale); err != nil {
			res.VerifyErr = err.Error()
		}
	}
	sl.end(id)
	res.VerifyS = sl.seconds(id)

	sum := sha256.Sum256([]byte(r.Output))
	res.Committed = r.Committed
	res.Aborted = r.Aborted
	res.TimeWarps = r.TimeWarps
	res.CoherenceWarps = r.CoherenceWarps
	res.Sim = fingerprint{
		EndTime:    r.EndTime,
		ROICycles:  r.ROICycles(),
		ExitCode:   r.ExitCode,
		OutputHash: hex.EncodeToString(sum[:]),
		L2:         r.L2Stats,
	}
	for _, st := range r.CoreStats {
		res.CoreCycles += st.ROICycles()
		res.Skipped += st.Skipped
		res.L1DMisses += st.L1D.Misses
		res.Syscalls += st.Syscalls
		res.Retries += st.Retries
	}
	for _, p := range r.BlockedParks {
		res.Parks += p
	}
	res.KernelCalls = m.Kernel().Calls
	res.HostAllocs = r.HostAllocs
	res.HostGCs = r.HostGCs
	res.Events = r.EventsProcessed
	res.ManagerBusyS = r.ManagerBusy.Seconds()
	for i := range r.CoreBusy {
		res.CoreBusyS += r.CoreBusy[i].Seconds()
		res.CoreWaitS += r.CoreWait[i].Seconds()
	}
	for _, s := range r.Stragglers {
		res.StragglerTop = max(res.StragglerTop, s.HeldFrac)
	}
	res.Wire = r.Wire
	return res
}

// processCPU is the user+sys CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loopbackWorkers is a fleet of in-process worker sessions behind one
// loopback TCP listener, so every wire cost of the remote backend is real.
// The listener stays open for the run so the parent's supervisor can redial.
type loopbackWorkers struct {
	ln         net.Listener
	transports []remote.Transport
	sessions   sync.WaitGroup
}

func startLoopbackWorkers(n int) (*loopbackWorkers, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopbackWorkers{ln: ln}
	l.sessions.Add(1)
	go func() {
		defer l.sessions.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			l.sessions.Add(1)
			go func() {
				defer l.sessions.Done()
				// A session error also fails the parent's run, which is
				// where it is reported.
				_ = core.ServeRemoteShards(c)
			}()
		}
	}()
	for i := 0; i < n; i++ {
		t, err := l.dial(i)
		if err != nil {
			l.close()
			return nil, err
		}
		l.transports = append(l.transports, t)
	}
	return l, nil
}

func (l *loopbackWorkers) dial(int) (remote.Transport, error) {
	return net.Dial("tcp", l.ln.Addr().String())
}

// close stops accepting, hangs up, and waits for every session to end.
func (l *loopbackWorkers) close() {
	l.ln.Close()
	for _, t := range l.transports {
		t.Close()
	}
	l.sessions.Wait()
}

// rep is one child process as the parent saw it: what the child measured
// plus the noise record of the host while it ran.
type rep struct {
	childRes
	ChildWallS float64 `json:"child_wall_s"` // whole process, start to exit
	MaxRSSMB   float64 `json:"max_rss_mb"`
	StealS     float64 `json:"steal_s"` // /proc/stat steal while it ran, all CPUs
	Load1      float64 `json:"load1"`   // 1-minute load average at its start
	Noisy      bool    `json:"noisy"`   // steal above 5 % of wall; kept, not dropped
	Failure    string  `json:"failure,omitempty"`
}

// childTimeout bounds one child so that a hung engine is a counted failure.
const childTimeout = 60 * time.Second

// runChild executes req in a fresh process of this binary, with GOMAXPROCS
// fixed at its start, and records the child's spans under a new span.
func runChild(sl *spanLog, req childReq, hostCores int) rep {
	arg, err := json.Marshal(req)
	if err != nil {
		return rep{Failure: err.Error()}
	}
	exe, err := os.Executable()
	if err != nil {
		return rep{Failure: err.Error()}
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(hostCores))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr

	name := "rep"
	if req.Oracle {
		name = "oracle_rep"
	}
	r := rep{Load1: loadAvg1()}
	steal0 := stealSeconds()
	id := sl.begin(name, req.Workload, 0)
	err = cmd.Run()
	sl.end(id)
	r.ChildWallS = sl.seconds(id)
	r.StealS = stealSeconds() - steal0
	r.Noisy = r.StealS > 0.05*r.ChildWallS
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
		}
	}
	if err != nil {
		r.Failure = fmt.Sprintf("child: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
		return r
	}
	if err := json.Unmarshal(stdout.Bytes(), &r.childRes); err != nil {
		r.Failure = "child output: " + err.Error()
		return r
	}
	sl.adopt(r.Spans, id)
	r.Spans = nil
	return r
}
