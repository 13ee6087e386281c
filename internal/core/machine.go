package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slacksim/internal/asm"
	"slacksim/internal/cache"
	"slacksim/internal/cpu"
	"slacksim/internal/event"
	"slacksim/internal/faultinject"
	"slacksim/internal/loader"
	"slacksim/internal/metrics"
	"slacksim/internal/sysemu"
	"slacksim/internal/trace"
)

// CoreModel names the per-core timing model. The paper's 4-wide
// out-of-order core is the only one; the type and its single value remain
// because the benchmark definition under bench/ names them.
type CoreModel int

// ModelOoO is the paper's 4-wide out-of-order target core, and the only
// valid CoreModel.
const ModelOoO CoreModel = 0

// Config describes a target machine and simulation limits.
type Config struct {
	NumCores   int
	NumThreads int       // reported by SysNumThreads; defaults to NumCores
	Model      CoreModel // must be ModelOoO (kept for bench/)
	CPU        cpu.Config
	Cache      cache.Config
	MemSize    uint64
	StackSize  uint64
	// MaxCycles aborts a runaway simulation (0 = a large default).
	MaxCycles int64
	// StallTimeout aborts a parallel run whose simulated time stops
	// advancing (deadlocked workload); defaults to 60s of host time.
	StallTimeout time.Duration
	// ManagerShards splits the memory-hierarchy side of the simulation
	// manager into this many shards, each owning a disjoint set of NUCA
	// banks and memory channels (the paper's §2.2 scaling hook). The shards
	// have no threads of their own: the core groups process them inside the
	// manager round. 0 or 1 is one shard holding the whole hierarchy.
	// Requires the L2 bank count to be divisible by the shard count; the
	// cache configuration's DRAMChannels is pinned to the shard count so
	// channel ownership is exact.
	ManagerShards int
	// RemoteShards splits the memory-hierarchy side across this many
	// shards hosted in separate OS processes (the distributed backend;
	// see remote.go and internal/remote). 0 disables. Mutually exclusive
	// with ManagerShards > 1; the same L2-bank divisibility and
	// DRAM-channel pinning rules apply, so a remote run's timing
	// configuration is identical to an in-process run with
	// ManagerShards = RemoteShards — the basis of the bit-exactness
	// guarantee. Drive the run with RunRemoteSharded.
	RemoteShards int
	// Audit enables the sampled runtime invariant auditor (see audit.go):
	// every AuditEvery scheduler iterations each core asserts
	// Global <= Local <= MaxLocal and clock monotonicity, and every InQ
	// delivery is checked for conservative lateness. Violations surface
	// as *SimError from the Run* drivers.
	Audit bool
	// AuditEvery is the auditor's sampling period in core-scheduler
	// iterations (default 64; 1 checks every iteration).
	AuditEvery int
}

// DefaultConfig returns the paper's target: an 8-core CMP of 4-way OoO
// cores with the hierarchy of cache.DefaultConfig.
func DefaultConfig() Config {
	return Config{
		NumCores: 8,
		CPU:      cpu.DefaultConfig(),
		Cache:    cache.DefaultConfig(8),
	}
}

func (c *Config) fillDefaults() error {
	if c.NumCores < 1 {
		return fmt.Errorf("core: NumCores must be >= 1")
	}
	if c.Model != ModelOoO {
		return fmt.Errorf("core: unknown core model %d", c.Model)
	}
	if c.NumThreads == 0 {
		c.NumThreads = c.NumCores
	}
	if c.Cache.NumCores == 0 {
		c.Cache = cache.DefaultConfig(c.NumCores)
	}
	if c.Cache.NumCores != c.NumCores {
		return fmt.Errorf("core: cache config is for %d cores, machine has %d", c.Cache.NumCores, c.NumCores)
	}
	if err := c.Cache.Validate(); err != nil {
		return fmt.Errorf("core: invalid cache config: %w", err)
	}
	if c.CPU.ROBSize == 0 {
		c.CPU = cpu.DefaultConfig()
	}
	if c.MemSize == 0 {
		c.MemSize = loader.DefaultMemSize
	}
	if c.StackSize == 0 {
		c.StackSize = loader.DefaultStackSize
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 20_000_000_000
	}
	if c.AuditEvery == 0 {
		c.AuditEvery = 64
	}
	if c.ManagerShards > 1 {
		if c.Cache.L2Banks%c.ManagerShards != 0 {
			return fmt.Errorf("core: %d manager shards must divide %d L2 banks", c.ManagerShards, c.Cache.L2Banks)
		}
		if c.Cache.DRAMChannels == 0 || c.Cache.DRAMChannels == 1 {
			c.Cache.DRAMChannels = c.ManagerShards
		}
		if c.Cache.DRAMChannels != c.ManagerShards {
			return fmt.Errorf("core: %d DRAM channels incompatible with %d manager shards", c.Cache.DRAMChannels, c.ManagerShards)
		}
	}
	if c.RemoteShards > 0 {
		if c.ManagerShards > 1 {
			return fmt.Errorf("core: RemoteShards and ManagerShards are mutually exclusive")
		}
		// The same bank and channel pinning as ManagerShards, so a remote
		// run simulates the exact timing configuration of an in-process
		// sharded run with the same shard count.
		if c.Cache.L2Banks%c.RemoteShards != 0 {
			return fmt.Errorf("core: %d remote shards must divide %d L2 banks", c.RemoteShards, c.Cache.L2Banks)
		}
		if c.Cache.DRAMChannels == 0 || c.Cache.DRAMChannels == 1 {
			c.Cache.DRAMChannels = c.RemoteShards
		}
		if c.Cache.DRAMChannels != c.RemoteShards {
			return fmt.Errorf("core: %d DRAM channels incompatible with %d remote shards", c.Cache.DRAMChannels, c.RemoteShards)
		}
	}
	return nil
}

// padded is an atomic.Int64 padded to a cache line to avoid false sharing
// between the manager and core threads on the host CMP.
type padded struct {
	v atomic.Int64
	_ [7]int64
}

// Machine is an instantiated target system ready to simulate. A Machine is
// single-use: build one per simulation run.
type Machine struct {
	cfg    Config
	scheme Scheme

	img    *loader.Image
	kernel *sysemu.Kernel
	l2     *cache.L2System
	cores  []*cpu.OoO

	local []padded
	// edge is the window edge: every core's max local time, the paper's
	// MaxLocal(i), which no scheme sets differently for two cores. Only
	// the manager raises it (slideWindows).
	edge padded
	// meet is the edge rendezvous word (meetAtEdge): the generation in the
	// high 32 bits, the groups arrived at its edge in the low 32.
	meet padded
	// blocked[i] marks a core whose thread is asleep inside a blocking
	// system call (the kernel holds it on a wait queue). Blocked cores are
	// excluded from the global-time minimum — their clocks are frozen and
	// meaningless until the grant, whose timestamp they then jump to.
	blocked []atomic.Int64
	// resumeFloor[i] is the timestamp of core i's most recent blocking-
	// syscall grant. From the instant the grant is pushed, the core
	// rejoins the global minimum at this time (its frozen clock will jump
	// there), so the global time cannot race past the core's resume point
	// while its goroutine is waiting to be scheduled — which would let it
	// inject events into the manager's past and break the conservative
	// schemes' determinism. Only the manager role writes blocked and
	// resumeFloor, on syscall transitions, so neither is padded: the
	// round's scan (globalMin) reads each for eight cores from one line.
	resumeFloor []atomic.Int64
	global      atomic.Int64
	done        atomic.Bool
	intr        atomic.Bool  // Interrupt() requested (signal handler)
	roiTime     atomic.Int64 // simulated time the ROI began (-1 until then)

	// mgrEpoch counts core-side activity (group passes that moved a member
	// and did not end in a round, OutQ pushes, remote reply batches); the
	// manager records it at the start of a round and parks when a round
	// was idle and the epoch did not move. mgrParked flags a manager
	// waiting on mgrWake so the bump path can skip the channel when the
	// manager is running (same Dekker pattern as the groups' waiting flag).
	mgrEpoch  padded
	mgrParked atomic.Int32
	mgrWake   chan struct{}
	// mgrMu is the manager's role: the groups run the rounds themselves,
	// and whichever group gets it runs one.
	mgrMu sync.Mutex
	// atEdge says the run's groups meet at each window edge instead
	// (meetAtEdge): a conservative scheme on the hosted backend at K >= 2.
	// Set by beginRun before any group starts, as is edgeSpin, how long a
	// group waiting there spins before it parks (awaitRound).
	atEdge   bool
	edgeSpin time.Duration

	gq evHeap
	// serialMode marks a RunSerial drive.
	serialMode bool

	// shards are the §2.2 memory shards the manager round hosts: one on an
	// unsharded machine, none on a remote one (see sharded.go).
	shards []*hostedShard
	// remote holds the distributed-backend plumbing (nil unless
	// Config.RemoteShards > 0; see remote.go).
	remote *remoteState

	endTime  int64 // simulated time of SysExit
	exitCode int64
	aborted  bool // MaxCycles hit

	// Fault containment (see fault.go): the run's first recorded failure.
	faultMu sync.Mutex
	fault   error
	// audit, when non-nil, is the runtime invariant auditor (audit.go).
	audit *auditState
	// Fault-injection plan slices, partitioned per target goroutine by
	// EnableFaults (all nil when no plan is installed; see fault.go).
	fiCore  [][]faultinject.Fault // per-core faults
	fiDelay [][]faultinject.Fault // per-core DelayDelivery faults
	fiMgr   []faultinject.Fault   // manager-targeted faults
	fiShard [][]faultinject.Fault // per-shard faults (hosted shards)
	fiWire  []faultinject.Fault   // wire-level faults (remote backend)
	// lastEvKind/lastEvTime record each core's most recent InQ delivery
	// (written by the owning core goroutine, read by forensic snapshots).
	lastEvKind []padded
	lastEvTime []padded

	// Grouped execution (group.go). members is every core's loop-owned run
	// state; groups[:nGroups] are the run's host goroutines' blocks of it,
	// each with its event rings, and groupOf maps a core to its group. All
	// three are allocated here at full size and only filled in by
	// formGroups, so Interrupt may touch them at any time; the forensic
	// snapshots read a group's rings only once schemeLive is set, which
	// happens after formGroups.
	members []member
	groups  []coreGroup
	groupOf []*coreGroup
	nGroups int
	// coreSlots is each core's share of its group's rings: ringShare, less
	// only on the bare machines of the fabric tests, which fill them.
	coreSlots int

	// drainBuf is the manager-side reusable buffer for Ring.PopBatch
	// (manager role only).
	drainBuf []event.Event
	// mgrTimer is the reusable park timer for mgrIdleWait (manager role
	// only); allocating a fresh timer per park shows up as the
	// dominant steady-state allocation of an otherwise quiescent machine.
	mgrTimer *time.Timer

	// hostMem is the runtime allocation baseline captured by the driver
	// entry points; result() reports the deltas (see result.go).
	hostMem      hostMemBaseline
	hostMemValid bool

	// trace, when non-nil, receives manager snapshots (used by the Figure 2
	// style visualisation example).
	trace func(global int64, locals []int64)

	// Observability subsystem (all nil/zero when disabled; see observe.go).
	// epoch anchors the host-time latency stamps (hostNS, latency.go).
	epoch  time.Time
	met    *engineMet
	tracer *trace.Collector
	coreTW []*trace.Writer // per-core trace rings
	mgrTW  *trace.Writer   // manager trace ring
	// mgrBusyNS is the host time of productive manager rounds (metrics
	// only; the groups keep their own share of the sync-overhead breakdown).
	mgrBusyNS int64
	// evProcessed counts the manager's GQ events and evShard the memory
	// shards' (hosted, adopted or remote, as their FStats report them);
	// both manager-role or post-join only.
	evProcessed int64
	evShard     int64
	// replied is set by pushReply and cleared by each round's visibility
	// step, which reports it so the round wakes the groups replied to
	// (manager role only).
	replied bool

	// strag is the manager-owned straggler attribution state (latency.go;
	// nil when metrics are disabled).
	strag *stragglerState

	// Live introspection plumbing (introspect.go; inert unless
	// EnableIntrospection ran). introOn is set before the run starts.
	// liveGQ mirrors the manager-owned GQ depth and schemeLive the
	// run's scheme, so HTTP-goroutine snapshots never touch single-owner
	// state; hwIn/hwOut are the InQ and OutQ high-water gauges, each the
	// maximum over the run's rings.
	introOn     bool
	liveGQ      atomic.Int64
	schemeLive  atomic.Pointer[Scheme]
	hwIn, hwOut *metrics.Gauge

	// Crash-bundle plumbing (bundle.go; inert unless SetBundleDir ran).
	// bundleDone latches the first write — takeFault runs once per driver
	// exit path and the bundle must not be clobbered by a second pass.
	bundleDir  string
	bundlePath string
	bundleDone bool
}

// NewMachine loads prog into a fresh machine.
func NewMachine(prog *asm.Program, cfg Config) (*Machine, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	img, err := loader.Load(prog, loader.Config{
		MemSize:   cfg.MemSize,
		StackSize: cfg.StackSize,
		NumCores:  cfg.NumCores,
	})
	if err != nil {
		return nil, err
	}
	l2, err := cache.NewL2System(cfg.Cache)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m := &Machine{
		cfg:         cfg,
		epoch:       time.Now(),
		img:         img,
		kernel:      sysemu.NewKernel(sysemu.KernelImage(img), cfg.NumCores, cfg.NumThreads),
		l2:          l2,
		cores:       make([]*cpu.OoO, cfg.NumCores),
		local:       make([]padded, cfg.NumCores),
		blocked:     make([]atomic.Int64, cfg.NumCores),
		resumeFloor: make([]atomic.Int64, cfg.NumCores),
		members:     make([]member, cfg.NumCores),
		groups:      make([]coreGroup, cfg.NumCores),
		groupOf:     make([]*coreGroup, cfg.NumCores),
		lastEvKind:  make([]padded, cfg.NumCores),
		lastEvTime:  make([]padded, cfg.NumCores),
		mgrWake:     make(chan struct{}, 1),
		coreSlots:   ringShare,
		drainBuf:    make([]event.Event, 0, ringShare),
	}
	m.roiTime.Store(-1)
	if cfg.Audit {
		m.audit = newAuditState(cfg.NumCores, cfg.AuditEvery)
	}
	for i := 0; i < cfg.NumCores; i++ {
		env := cpu.Env{
			ID:       i,
			Mem:      img.Mem,
			CacheCfg: cfg.Cache,
			// Push into the group's OutQ, then bump the manager's wake
			// epoch, so a parked manager is woken only after the work is
			// visible. Groups that meet at the edge need no bump: no
			// round runs while any of them can still push.
			Send: func(ev event.Event) {
				if m.met != nil {
					// Latency-attribution stamps (latency.go): the reply
					// echoes both, so delivery can attribute the full
					// request→reply lag without a matching table.
					ev.ReqTime = ev.Time
					ev.SendNS = m.hostNS()
				}
				m.groupOf[i].outQ.MustPush(ev)
				if !m.atEdge {
					m.bumpMgrEpoch()
				}
			},
			TextBase: prog.TextBase,
			TextEnd:  prog.TextEnd(),
		}
		if m.cores[i], err = cpu.NewOoO(cfg.CPU, env); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		// Until beginRun forms the run's groups, each core is a group of
		// one.
		m.groups[i].cond = sync.NewCond(&m.groups[i].mu)
		m.groups[i].members = m.members[i : i+1]
		m.members[i].id = i
		m.groupOf[i] = &m.groups[i]
	}
	// Deferred grants for blocked syscalls (lock handoff, barrier release,
	// semaphore signal, join) come back through the same InQ reply path;
	// Notify runs inside the round's visibility step, which wakes the
	// group.
	m.kernel.Notify = func(core int, t int64, ret int64) {
		if m.kernel.Trace != nil {
			m.kernel.Trace(fmt.Sprintf("  grant core=%d t=%d ret=%d", core, t, ret))
		}
		grantAt := t + m.cfg.Cache.CriticalLatency()
		grant := event.Event{
			Kind: event.KSyscallDone,
			Core: int32(core),
			Time: grantAt,
			Aux:  ret,
		}
		// Rejoin the global minimum at the resume floor. Notify runs in
		// the manager role (inside a processing pass), so the role's next
		// globalMin scan reads both stores, which keeps the global time
		// from racing past the core's resume point.
		m.pushReply(core, grant)
		m.resumeFloor[core].Store(grantAt)
		m.blocked[core].Store(0)
	}
	if cfg.RemoteShards > 0 {
		m.remote = newRemoteState(cfg)
	} else if err := m.hostShards(max(cfg.ManagerShards, 1)); err != nil {
		return nil, err
	}
	// Core 0 runs the initial workload thread.
	m.cores[0].Start(img.Entry, img.StackTop(0), 0)
	return m, nil
}

// Image returns the loaded program image (for input poking and output
// inspection by workloads and tests).
func (m *Machine) Image() *loader.Image { return m.img }

// Kernel returns the emulated OS (workload output, violation counters).
func (m *Machine) Kernel() *sysemu.Kernel { return m.kernel }

// DebugState renders the engine's pacing state plus each core's debug dump
// (diagnostics for aborted runs).
func (m *Machine) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "global=%d maxLocal=%d gq=%d\n", m.global.Load(), m.edge.v.Load(), m.gq.Len())
	for i := range m.cores {
		in, out := m.ringDepths(i)
		fmt.Fprintf(&b, "core %d: local=%d blocked=%d floor=%d inQ=%d outQ=%d\n",
			i, m.local[i].v.Load(), m.blocked[i].Load(),
			m.resumeFloor[i].Load(), in, out)
		b.WriteString("  " + m.cores[i].DebugState())
	}
	return b.String()
}

// SetTrace installs a manager-side snapshot hook. Paced runs invoke it in
// the manager role on every pacing update.
func (m *Machine) SetTrace(fn func(global int64, locals []int64)) { m.trace = fn }

// evHeap is the manager's GQ: a binary min-heap of events ordered by
// (Time, Core, Seq). The implementation lives in the event package so the
// remote-shard worker process orders its stream with the same comparator.
type evHeap = event.Heap
