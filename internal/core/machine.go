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

// CoreModel selects the per-core timing model.
type CoreModel int

const (
	// ModelOoO is the paper's 4-wide out-of-order target core.
	ModelOoO CoreModel = iota
	// ModelInOrder is a single-issue blocking core (validation/ablation).
	ModelInOrder
)

// Config describes a target machine and simulation limits.
type Config struct {
	NumCores   int
	NumThreads int // reported by SysNumThreads; defaults to NumCores
	Model      CoreModel
	CPU        cpu.Config
	Cache      cache.Config
	MemSize    uint64
	StackSize  uint64
	// MaxCycles aborts a runaway simulation (0 = a large default).
	MaxCycles int64
	// RingCap sizes the InQ/OutQ rings.
	RingCap int
	// StallTimeout aborts a parallel run whose simulated time stops
	// advancing (deadlocked workload); defaults to 60s of host time.
	StallTimeout time.Duration
	// SyscallLat is the round-trip latency of a system call through the
	// manager; defaults to the cache hierarchy's critical latency, which
	// keeps conservative schemes exact.
	SyscallLat int64
	// ManagerShards splits the memory-hierarchy side of the simulation
	// manager across this many worker goroutines, each owning a disjoint
	// set of NUCA banks and memory channels (the paper's §2.2 scaling
	// hook). 0 or 1 keeps the single manager thread. Requires the L2 bank
	// count to be divisible by the shard count; the cache configuration's
	// DRAMChannels is pinned to the shard count so channel ownership is
	// exact.
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
		Model:    ModelOoO,
		CPU:      cpu.DefaultConfig(),
		Cache:    cache.DefaultConfig(8),
	}
}

func (c *Config) fillDefaults() error {
	if c.NumCores < 1 {
		return fmt.Errorf("core: NumCores must be >= 1")
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
	if c.RingCap == 0 {
		c.RingCap = 512
	}
	if c.SyscallLat == 0 {
		c.SyscallLat = c.Cache.CriticalLatency()
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

// paddedU64 is a cache-line-padded atomic bitmap word (the dirty-OutQ set:
// one bit per core, one word per 64 cores).
type paddedU64 struct {
	v atomic.Uint64
	_ [7]uint64
}

// Machine is an instantiated target system ready to simulate. A Machine is
// single-use: build one per simulation run.
type Machine struct {
	cfg    Config
	scheme Scheme

	img    *loader.Image
	kernel *sysemu.Kernel
	l2     *cache.L2System
	cores  []cpu.Core

	outQ []*event.Ring // core -> manager
	inQ  []*event.Ring // manager -> core

	local    []padded
	maxLocal []padded
	// blocked[i] marks a core whose thread is asleep inside a blocking
	// system call (the kernel holds it on a wait queue). Blocked cores are
	// excluded from the global-time minimum — their clocks are frozen and
	// meaningless until the grant, whose timestamp they then jump to.
	blocked []padded
	// resumeFloor[i] is the timestamp of core i's most recent blocking-
	// syscall grant. From the instant the grant is pushed, the core
	// rejoins the global minimum at this time (its frozen clock will jump
	// there), so the global time cannot race past the core's resume point
	// while its goroutine is waiting to be scheduled — which would let it
	// inject events into the manager's past and break the conservative
	// schemes' determinism.
	resumeFloor []padded
	global      atomic.Int64
	done        atomic.Bool
	intr        atomic.Bool  // Interrupt() requested (signal handler)
	roiTime     atomic.Int64 // simulated time the ROI began (-1 until then)

	// lt is the tournament min-tree over the cores' effective local times
	// (see mintree.go): cores update their leaf on clock publication, the
	// manager reads the root in O(1) instead of scanning N clocks.
	lt *minTree
	// outDirty marks OutQs that received a push since the manager's last
	// drain (one bit per core), so the drain touches only active rings.
	outDirty []paddedU64
	// mgrEpoch counts core-side activity (clock publications, OutQ pushes,
	// kernel grants); the manager records it at the start of a round and
	// parks when a round was idle and the epoch did not move. mgrParked
	// flags a manager waiting on mgrWake so the bump path can skip the
	// channel when the manager is running (same Dekker pattern as the
	// groups' waiting flag).
	mgrEpoch  padded
	mgrParked atomic.Int32
	mgrWake   chan struct{}
	// mgrMu is the manager's role on the unsharded backend, where the groups
	// run the rounds themselves: whichever group gets it runs one.
	mgrMu sync.Mutex

	gq evHeap
	// serialMode marks a RunSerial drive.
	serialMode bool
	// fused marks a RunFused drive: the whole simulation runs on one
	// goroutine, so Env.Send pushes straight into the GQ and manager
	// replies append to fusedIn instead of the InQ rings (see fused.go).
	fused bool
	// fusedIn is the fused driver's per-core pending-reply slice — the
	// plain-append replacement for the InQ ring + notify path.
	fusedIn [][]event.Event

	// shards holds the §2.2 sharded-manager plumbing (nil when unsharded).
	shards *shardState
	// remote holds the distributed-backend plumbing (nil unless
	// Config.RemoteShards > 0; see remote.go).
	remote *remoteState
	// coreRings lists, per core, every reply ring the core must drain: the
	// main manager's InQ plus one ring per shard.
	coreRings [][]*event.Ring

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
	fiShard [][]faultinject.Fault // per-shard-worker faults
	fiWire  []faultinject.Fault   // wire-level faults (remote backend)
	// lastEvKind/lastEvTime record each core's most recent InQ delivery
	// (written by the owning core goroutine, read by forensic snapshots).
	lastEvKind []padded
	lastEvTime []padded

	// Grouped execution (group.go). members is every core's loop-owned run
	// state; groups[:nGroups] are the run's host goroutines' blocks of it and
	// groupOf maps a core to its group. All three are allocated here at full
	// size and only filled in by beginRun, so Interrupt and the forensic
	// snapshots may touch them at any time.
	members []member
	groups  []coreGroup
	groupOf []*coreGroup
	nGroups int

	// drainBuf is the manager-side reusable buffer for Ring.PopBatch
	// (manager goroutine only).
	drainBuf []event.Event
	// mgrTimer is the reusable park timer for mgrIdleWait (manager
	// goroutine only); allocating a fresh timer per park shows up as the
	// dominant steady-state allocation of an otherwise quiescent machine.
	mgrTimer *time.Timer

	// hostMem is the runtime allocation baseline captured by the driver
	// entry points; result() reports the deltas (see result.go).
	hostMem      hostMemBaseline
	hostMemValid bool

	// notifyPend/notifyBatch implement the manager's per-round notify
	// coalescing (manager goroutine only; see deferNotify): one bit per
	// core with a pending InQ push this processing pass, flushed as one
	// notifyCore each after the pass.
	notifyPend  []uint64
	notifyBatch bool

	// Per-core engine-level counters.
	waitCycles []int64 // simulated cycles spent blocked at the window edge

	// trace, when non-nil, receives manager snapshots (used by the Figure 2
	// style visualisation example).
	trace func(global int64, locals []int64)

	// Observability subsystem (all nil/zero when disabled; see observe.go).
	// epoch anchors the host-time latency stamps (hostNS, latency.go).
	epoch   time.Time
	met     *engineMet
	tracer  *trace.Collector
	coreTW  []*trace.Writer // per-core trace rings
	mgrTW   *trace.Writer   // manager trace ring
	shardTW []*trace.Writer // per-shard-worker trace rings
	// mgrBusyNS is the host time of productive manager rounds (metrics
	// only; the groups keep their own share of the sync-overhead breakdown).
	mgrBusyNS int64
	// evProcessed counts manager-thread GQ events (manager/serial
	// goroutine only); evShard counts shard-worker events.
	evProcessed int64
	evShard     atomic.Int64

	// strag is the manager-owned straggler attribution state (latency.go;
	// nil when metrics are disabled).
	strag *stragglerState

	// Live introspection plumbing (introspect.go; inert unless
	// EnableIntrospection ran). introOn is set before the run starts.
	// liveGQ mirrors the manager-owned GQ depth and schemeLive the
	// run's scheme, so HTTP-goroutine snapshots never touch single-owner
	// state; hwIn/hwOut are the per-ring high-water gauges.
	introOn    bool
	liveGQ     atomic.Int64
	schemeLive atomic.Pointer[Scheme]
	hwIn       []*metrics.Gauge
	hwOut      []*metrics.Gauge

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
		cores:       make([]cpu.Core, cfg.NumCores),
		outQ:        make([]*event.Ring, cfg.NumCores),
		inQ:         make([]*event.Ring, cfg.NumCores),
		local:       make([]padded, cfg.NumCores),
		maxLocal:    make([]padded, cfg.NumCores),
		blocked:     make([]padded, cfg.NumCores),
		resumeFloor: make([]padded, cfg.NumCores),
		members:     make([]member, cfg.NumCores),
		groups:      make([]coreGroup, cfg.NumCores),
		groupOf:     make([]*coreGroup, cfg.NumCores),
		waitCycles:  make([]int64, cfg.NumCores),
		lastEvKind:  make([]padded, cfg.NumCores),
		lastEvTime:  make([]padded, cfg.NumCores),
		lt:          newMinTree(cfg.NumCores),
		outDirty:    make([]paddedU64, (cfg.NumCores+63)/64),
		notifyPend:  make([]uint64, (cfg.NumCores+63)/64),
		mgrWake:     make(chan struct{}, 1),
		drainBuf:    make([]event.Event, 0, cfg.RingCap),
	}
	m.roiTime.Store(-1)
	if cfg.Audit {
		m.audit = newAuditState(cfg.NumCores, cfg.AuditEvery)
	}
	for i := 0; i < cfg.NumCores; i++ {
		m.outQ[i] = event.NewRing(cfg.RingCap)
		m.outQ[i].SetName(fmt.Sprintf("outq.c%d", i))
		m.inQ[i] = event.NewRing(cfg.RingCap)
		m.inQ[i].SetName(fmt.Sprintf("inq.c%d", i))
		env := cpu.Env{
			ID:       i,
			Mem:      img.Mem,
			CacheCfg: cfg.Cache,
			// Push, then mark the ring dirty, then bump the manager's wake
			// epoch — in that order, so a dirty bit cleared by the
			// manager's swap always implies the event was drained, and a
			// parked manager is woken only after the work is visible.
			Send: func(ev event.Event) {
				if m.met != nil {
					// Latency-attribution stamps (latency.go): the reply
					// echoes both, so delivery can attribute the full
					// request→reply lag without a matching table.
					ev.ReqTime = ev.Time
					ev.SendNS = m.hostNS()
				}
				if m.fused {
					// Single-goroutine drive: push straight into the GQ.
					// The heap's (Time, Core, Seq) order makes processing
					// order independent of push order, so this is exact.
					m.gq.Push(ev)
					return
				}
				m.outQ[i].MustPush(ev)
				m.markOutDirty(i)
				m.bumpMgrEpoch()
			},
			TextBase: prog.TextBase,
			TextEnd:  prog.TextEnd(),
		}
		var c cpu.Core
		var cerr error
		switch cfg.Model {
		case ModelInOrder:
			c, cerr = cpu.NewInOrder(cfg.CPU, env)
		default:
			c, cerr = cpu.NewOoO(cfg.CPU, env)
		}
		if cerr != nil {
			return nil, fmt.Errorf("core: %w", cerr)
		}
		m.cores[i] = c
		m.groups[i].cond = sync.NewCond(&m.groups[i].mu)
		m.groupOf[i] = &m.groups[i] // until beginRun forms the run's groups
	}
	// Deferred grants for blocked syscalls (lock handoff, barrier release,
	// semaphore signal, join) come back through the same InQ reply path.
	m.kernel.Notify = func(core int, t int64, ret int64) {
		if m.kernel.Trace != nil {
			m.kernel.Trace(fmt.Sprintf("  grant core=%d t=%d ret=%d", core, t, ret))
		}
		grantAt := t + m.cfg.SyscallLat
		grant := event.Event{
			Kind: event.KSyscallDone,
			Core: int32(core),
			Time: grantAt,
			Aux:  ret,
		}
		if m.fused {
			// Single-goroutine drive: the grant is a plain append, and the
			// fused loop recomputes the global minimum from the resume
			// floor directly in its next manager phase — no min-tree, no
			// wake-up.
			m.fusedIn[core] = append(m.fusedIn[core], grant)
			m.fusedNoteInDepth(core)
			m.resumeFloor[core].v.Store(grantAt)
			m.blocked[core].v.Store(0)
			return
		}
		m.inQ[core].MustPush(grant)
		m.resumeFloor[core].v.Store(grantAt)
		m.blocked[core].v.Store(0)
		// Rejoin the min-tree at the resume floor. Notify runs on the
		// manager goroutine (inside a processing pass), so the leaf is
		// exact — lowered from the blocked sentinel to the grant time —
		// before the manager's next globalMin read, which keeps the global
		// time from racing past the core's resume point.
		m.refreshMinLeaf(core)
		m.deferNotify(core)
	}
	if cfg.ManagerShards > 1 {
		sh, err := newShardState(cfg)
		if err != nil {
			return nil, err
		}
		m.shards = sh
	}
	if cfg.RemoteShards > 0 {
		m.remote = newRemoteState(cfg)
	}
	m.coreRings = make([][]*event.Ring, cfg.NumCores)
	for i := 0; i < cfg.NumCores; i++ {
		rings := []*event.Ring{m.inQ[i]}
		if m.shards != nil {
			for s := 0; s < m.shards.n; s++ {
				rings = append(rings, m.shards.out[s][i])
			}
		}
		if m.remote != nil {
			for s := 0; s < m.remote.n; s++ {
				rings = append(rings, m.remote.out[s][i])
			}
		}
		m.coreRings[i] = rings
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

// L2 returns the shared hierarchy model (statistics).
func (m *Machine) L2() *cache.L2System { return m.l2 }

// Cores returns the per-core models (statistics).
func (m *Machine) Cores() []cpu.Core { return m.cores }

// DebugState renders the engine's pacing state plus each core's debug dump
// (diagnostics for aborted runs).
func (m *Machine) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "global=%d gq=%d\n", m.global.Load(), m.gq.Len())
	for i := range m.cores {
		fmt.Fprintf(&b, "core %d: local=%d maxLocal=%d blocked=%d floor=%d inQ=%d outQ=%d\n",
			i, m.local[i].v.Load(), m.maxLocal[i].v.Load(), m.blocked[i].v.Load(),
			m.resumeFloor[i].v.Load(), m.inQ[i].Len(), m.outQ[i].Len())
		if d, ok := m.cores[i].(interface{ DebugState() string }); ok {
			b.WriteString("  " + d.DebugState())
		}
	}
	return b.String()
}

// SetTrace installs a manager-side snapshot hook. Parallel runs invoke it
// from the manager goroutine on every pacing update.
func (m *Machine) SetTrace(fn func(global int64, locals []int64)) { m.trace = fn }

// evHeap is the manager's GQ: a binary min-heap of events ordered by
// (Time, Core, Seq). The implementation lives in the event package so the
// remote-shard worker process orders its stream with the same comparator.
type evHeap = event.Heap
