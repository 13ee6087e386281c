package core

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"time"

	"slacksim/internal/event"
	"slacksim/internal/faultinject"
	"slacksim/internal/sysemu"
)

// This file is the engine's fault-containment layer. Every goroutine the
// Run* drivers spawn (core groups, the manager, shard workers) runs under a
// deferred containPanic, so a panic anywhere inside the simulation — a CPU
// model bug, a ring overflow, an injected fault — is converted into a
// structured SimError, the run is cancelled cleanly (every peer unparked
// and joined, no goroutine leak), and the error is returned from
// Machine.RunParallel/RunSerial instead of crashing the host process.
// The stall watchdog's forensic StallReport and the deterministic
// fault-injection hooks (internal/faultinject) live here too.

// SimError is a contained engine failure: a recovered panic in a
// simulation goroutine, a ring overflow, or an invariant violation found
// by the runtime auditor (Config.Audit).
type SimError struct {
	// Core identifies the failing goroutine: a core index,
	// faultinject.Manager (-1) for the manager or serial driver, or a
	// faultinject.ShardWorker id (<= -2) for a shard worker.
	Core int `json:"core"`
	// Op names the containment site ("core-loop", "manager",
	// "shard-worker", "serial-loop", "final-drain", "invariant-audit").
	Op string `json:"op"`
	// Detail is the recovered panic value or the violation description.
	Detail string `json:"detail"`
	// SimTime is the failing goroutine's simulated clock at the fault.
	SimTime int64 `json:"sim_time"`
	// GlobalTime is the global simulated time at the fault.
	GlobalTime int64 `json:"global_time"`
	// Scheme is the slack scheme the run used.
	Scheme Scheme `json:"scheme"`
	// Stack is the goroutine stack captured at the recovery point (empty
	// for auditor violations, which are reported in-line, not panics).
	Stack string `json:"stack,omitempty"`
	// Overflow carries the ring's forensics when the fault was a MustPush
	// overflow (ring identity, capacity, depth history, pending event).
	Overflow *event.OverflowError `json:"overflow,omitempty"`
	// Event is the offending event for auditor delivery violations.
	Event *event.Event `json:"event,omitempty"`
	// Report is the post-join engine snapshot, attached by the Run*
	// drivers before returning the error.
	Report *StallReport `json:"report,omitempty"`
}

func (e *SimError) Error() string {
	return fmt.Sprintf("core: contained failure in %s (%s) at local=%d global=%d [%v]: %s",
		goroutineName(e.Core), e.Op, e.SimTime, e.GlobalTime, e.Scheme, e.Detail)
}

// Unwrap exposes the ring-overflow cause to errors.As/errors.Is.
func (e *SimError) Unwrap() error {
	if e.Overflow != nil {
		return e.Overflow
	}
	return nil
}

// goroutineName renders a SimError/fault target id.
func goroutineName(target int) string {
	switch {
	case target == faultinject.Manager:
		return "manager"
	case target <= -2:
		s, _ := faultinject.IsShard(target)
		return fmt.Sprintf("shard-worker %d", s)
	default:
		return fmt.Sprintf("core %d", target)
	}
}

// StallError is returned when the stall watchdog fires: the simulated
// time made no progress for Wait of host time — a deadlocked workload or
// an engine pacing bug. Report is the forensic snapshot captured at the
// moment the watchdog fired.
type StallError struct {
	Wait   time.Duration `json:"wait_ns"`
	Report *StallReport  `json:"report"`
	// Deadlock marks a certain deadlock detected from kernel state (every
	// live thread queued on a kernel object, no grant in flight) rather
	// than a host-time stall; such runs fail immediately instead of
	// waiting out StallTimeout.
	Deadlock bool `json:"deadlock,omitempty"`
}

func (e *StallError) Error() string {
	msg := fmt.Sprintf("core: watchdog: simulated time stalled for %v", e.Wait.Round(time.Millisecond))
	if e.Deadlock {
		msg = "core: watchdog: deadlock: every live thread is blocked in the kernel"
	}
	if e.Report != nil {
		if s := e.Report.stalledSummary(); s != "" {
			msg += " (" + s + ")"
		}
	}
	return msg
}

// StallReport is a forensic snapshot of the engine's pacing state: the
// global time, every core's clock, window edge and park/freeze/blocked
// flags, queue depths, last delivered event, and the kernel's thread,
// lock, barrier and semaphore state. Captured by the watchdog (from the
// manager goroutine, which owns the kernel and GQ) and by the Run*
// drivers after all goroutines have joined.
type StallReport struct {
	Scheme     Scheme            `json:"scheme"`
	Global     int64             `json:"global"`
	GQDepth    int               `json:"gq_depth"`
	StalledFor time.Duration     `json:"stalled_ns,omitempty"`
	Cores      []CoreReport      `json:"cores"`
	Kernel     *sysemu.Forensics `json:"kernel,omitempty"`
	// Remote is the per-worker supervision state on distributed runs —
	// a stall there usually means a worker is mid-recovery or abandoned.
	Remote []RemoteWorkerReport `json:"remote,omitempty"`
}

// CoreReport is one core's pacing state inside a StallReport.
type CoreReport struct {
	ID          int    `json:"id"`
	Local       int64  `json:"local"`
	MaxLocal    int64  `json:"max_local"`
	ResumeFloor int64  `json:"resume_floor,omitempty"`
	Blocked     bool   `json:"blocked,omitempty"`
	Parked      bool   `json:"parked,omitempty"`
	Frozen      bool   `json:"frozen,omitempty"`
	InQ         int    `json:"inq"`
	OutQ        int    `json:"outq"`
	LastEvent   string `json:"last_event,omitempty"`
	LastEventAt int64  `json:"last_event_at,omitempty"`
}

// JSON renders the report as indented JSON (slacksim -forensics -json).
func (r *StallReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Text renders the report as an indented human-readable dump.
func (r *StallReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine snapshot: scheme=%v global=%d gq=%d", r.Scheme, r.Global, r.GQDepth)
	if r.StalledFor > 0 {
		fmt.Fprintf(&b, " stalled-for=%v", r.StalledFor.Round(time.Millisecond))
	}
	b.WriteByte('\n')
	for _, c := range r.Cores {
		fmt.Fprintf(&b, "  core %d: local=%d max=%s", c.ID, c.Local, renderCycles(c.MaxLocal))
		if c.ResumeFloor > 0 {
			fmt.Fprintf(&b, " floor=%d", c.ResumeFloor)
		}
		var flags []string
		if c.Blocked {
			flags = append(flags, "blocked")
		}
		if c.Parked {
			flags = append(flags, "parked")
		}
		if c.Frozen {
			flags = append(flags, "frozen")
		}
		if !c.Blocked && c.Local <= r.Global {
			flags = append(flags, "at-global")
		}
		if len(flags) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(flags, ","))
		}
		fmt.Fprintf(&b, " inq=%d outq=%d", c.InQ, c.OutQ)
		if c.LastEvent != "" {
			fmt.Fprintf(&b, " last=%s@%d", c.LastEvent, c.LastEventAt)
		}
		b.WriteByte('\n')
	}
	if k := r.Kernel; k != nil {
		for _, th := range k.Threads {
			fmt.Fprintf(&b, "  thread c%d: busy=%v exited=%v\n", th.Core, th.Busy, th.Exited)
		}
		for _, l := range k.Locks {
			fmt.Fprintf(&b, "  lock %#x: owner=%s waiters=%v\n", l.Addr, renderOwner(l.Owner), l.Waiters)
		}
		for _, bar := range k.Barriers {
			fmt.Fprintf(&b, "  barrier %#x: %d/%d waiters=%v\n", bar.Addr, bar.Count, bar.N, bar.Waiters)
		}
		for _, s := range k.Semas {
			fmt.Fprintf(&b, "  sema %#x: value=%d waiters=%v\n", s.Addr, s.Value, s.Waiters)
		}
		if k.TimeWarps > 0 || k.LockMismatch > 0 {
			fmt.Fprintf(&b, "  kernel: warps=%d lock-mismatch=%d\n", k.TimeWarps, k.LockMismatch)
		}
	}
	for _, w := range r.Remote {
		fmt.Fprintf(&b, "  remote worker %d: state=%s mark=%s shards=%v", w.ID, w.State, renderCycles(w.Mark), w.Shards)
		if w.Reconnects > 0 || w.Epoch > 0 {
			fmt.Fprintf(&b, " reconnects=%d epoch=%d", w.Reconnects, w.Epoch)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// stalledSummary names the cores pinning the global time (and blocked
// cores, the usual deadlock suspects) for the one-line StallError text.
func (r *StallReport) stalledSummary() string {
	var held []string
	for _, c := range r.Cores {
		switch {
		case c.Blocked:
			held = append(held, fmt.Sprintf("c%d:blocked", c.ID))
		case c.Local <= r.Global:
			held = append(held, fmt.Sprintf("c%d@%d", c.ID, c.Local))
		}
	}
	if len(held) == 0 {
		return ""
	}
	return "stalled cores: " + strings.Join(held, " ")
}

func renderCycles(v int64) string {
	if v == math.MaxInt64 {
		return "inf"
	}
	return fmt.Sprintf("%d", v)
}

func renderOwner(owner int) string {
	if owner < 0 {
		return "free"
	}
	return fmt.Sprintf("c%d", owner)
}

// setFault records the run's first fault, stops the simulation, and wakes
// every parked goroutine so the run joins promptly. Later faults —
// cascades from the shutdown itself — are dropped; the first failure is
// the one worth debugging.
func (m *Machine) setFault(err error) {
	m.faultMu.Lock()
	if m.fault == nil {
		m.fault = err
	}
	m.faultMu.Unlock()
	m.done.Store(true)
	m.wakeAll()
}

// Fault returns the run's recorded fault, if any. The Run* drivers
// already return it; this accessor serves post-mortem inspection.
func (m *Machine) Fault() error {
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	return m.fault
}

// takeFault is called by the Run* drivers after every goroutine has
// joined; it attaches the post-join engine snapshot to a SimError —
// safe only now, because the kernel and GQ are single-owner structures.
func (m *Machine) takeFault() error {
	m.faultMu.Lock()
	f := m.fault
	m.faultMu.Unlock()
	if f == nil {
		return nil
	}
	if se, ok := f.(*SimError); ok && se.Report == nil {
		se.Report = m.snapshot(true, 0)
	}
	// Crash-bundle capture (bundle.go): every driver funnels its failures
	// through here post-join, so this one hook covers them all.
	m.writeFailureBundle(f)
	return f
}

// containPanic converts a panic on the calling goroutine into a recorded
// SimError and a clean shutdown. Deferred by every goroutine the Run*
// drivers spawn, and around the manager/serial loops themselves.
func (m *Machine) containPanic(target int, op string) {
	if r := recover(); r != nil {
		m.recordPanic(target, op, r)
	}
}

// recordPanic is containPanic's second half, for a deferred function that
// only knows at recovery time whom to blame (runGroup).
func (m *Machine) recordPanic(target int, op string, r any) {
	se := &SimError{
		Core:       target,
		Op:         op,
		Scheme:     m.scheme,
		GlobalTime: m.global.Load(),
		Stack:      string(debug.Stack()),
	}
	if target >= 0 && target < len(m.local) {
		se.SimTime = m.local[target].v.Load()
	} else {
		se.SimTime = se.GlobalTime
	}
	switch v := r.(type) {
	case *event.OverflowError:
		se.Overflow = v
		se.Detail = v.Error()
	case error:
		se.Detail = v.Error()
	default:
		se.Detail = fmt.Sprint(v)
	}
	m.setFault(se)
}

// detectDeadlock reports a certain deadlock: the GQ and every ring feeding
// a core are empty, and the kernel says every live thread is queued on a
// synchronisation object. Kernel grants travel through manager-produced
// rings, whose Len is exact from the manager (and can only overestimate
// from stale consumer heads), so an in-flight wake-up suppresses the
// verdict; shard-produced memory replies can lag, but a core waiting on
// memory is not kernel-blocked and already suppresses it. Manager-owned,
// like every kernel read.
func (m *Machine) detectDeadlock() bool {
	if m.gq.Len() != 0 {
		return false
	}
	for i := range m.coreRings {
		for _, ring := range m.coreRings[i] {
			if ring.Len() != 0 {
				return false
			}
		}
		// A lone runner's replies wait in plain slices, not rings.
		if m.fused && len(m.fusedIn[i])+len(m.members[i].inbox) != 0 {
			return false
		}
	}
	return m.kernel.Deadlocked()
}

// snapshot captures the engine's pacing state. Reading the kernel and GQ
// is safe only from the goroutine that owns them: the manager (watchdog
// path) or any goroutine after the run's WaitGroup join (takeFault path).
func (m *Machine) snapshot(withKernel bool, stalledFor time.Duration) *StallReport {
	r := &StallReport{
		Scheme:     m.scheme,
		Global:     m.global.Load(),
		GQDepth:    m.gq.Len(),
		StalledFor: stalledFor,
		Cores:      m.coreReports(),
	}
	if withKernel {
		f := m.kernel.Forensics()
		r.Kernel = &f
	}
	r.Remote = m.remoteWorkerReports()
	return r
}

// coreReports builds the per-core section of a StallReport from the pacing
// atomics and ring lengths only — safe from any goroutine, so it is shared
// by the owner-only snapshot above and the introspection server's
// LiveSnapshot (introspect.go).
func (m *Machine) coreReports() []CoreReport {
	out := make([]CoreReport, 0, len(m.cores))
	for i := range m.cores {
		in := 0
		for _, ring := range m.coreRings[i] {
			in += ring.Len()
		}
		cr := CoreReport{
			ID:          i,
			Local:       m.local[i].v.Load(),
			MaxLocal:    m.maxLocal[i].v.Load(),
			ResumeFloor: m.resumeFloor[i].v.Load(),
			Blocked:     m.blocked[i].v.Load() != 0,
			Parked:      m.members[i].wait.Load() == memberAtEdge,
			Frozen:      m.members[i].wait.Load() == memberFrozen,
			InQ:         in,
			OutQ:        m.outQ[i].Len(),
		}
		if k := event.Kind(m.lastEvKind[i].v.Load()); k != event.KindInvalid {
			cr.LastEvent = k.String()
			cr.LastEventAt = m.lastEvTime[i].v.Load()
		}
		out = append(out, cr)
	}
	return out
}

// EnableFaults installs a deterministic fault-injection plan (see
// internal/faultinject). Call before the run starts. With no plan
// installed the engine's hot paths pay a single nil check.
func (m *Machine) EnableFaults(p *faultinject.Plan) error {
	if p == nil {
		return nil
	}
	nShards := 0
	if m.shards != nil {
		nShards = m.shards.n
	}
	if m.remote != nil && m.remote.n > nShards {
		nShards = m.remote.n
	}
	if err := p.Validate(m.cfg.NumCores, nShards); err != nil {
		return err
	}
	for _, f := range p.Faults() {
		switch {
		case f.Kind.IsWire():
			if m.remote == nil {
				return fmt.Errorf("core: %v fault requires the remote backend (Config.RemoteShards > 0)", f.Kind)
			}
			m.fiWire = append(m.fiWire, f)
		case f.Core == faultinject.Manager:
			m.fiMgr = append(m.fiMgr, f)
		case f.Core <= -2:
			s, _ := faultinject.IsShard(f.Core)
			if m.fiShard == nil {
				m.fiShard = make([][]faultinject.Fault, nShards)
			}
			m.fiShard[s] = append(m.fiShard[s], f)
		case f.Kind == faultinject.DelayDelivery:
			if m.fiDelay == nil {
				m.fiDelay = make([][]faultinject.Fault, m.cfg.NumCores)
			}
			m.fiDelay[f.Core] = append(m.fiDelay[f.Core], f)
		default:
			if m.fiCore == nil {
				m.fiCore = make([][]faultinject.Fault, m.cfg.NumCores)
			}
			m.fiCore[f.Core] = append(m.fiCore[f.Core], f)
		}
	}
	return nil
}

// injected is one goroutine's private trigger state over its slice of the
// plan. Never shared across goroutines, so the deterministic triggers
// need no synchronisation.
type injected struct {
	faults []faultinject.Fault
	fired  []bool
}

func newInjected(fs []faultinject.Fault) *injected {
	if len(fs) == 0 {
		return nil
	}
	return &injected{faults: fs, fired: make([]bool, len(fs))}
}

// applyCoreFaults fires a core's due injected faults against its loop-owned
// clock. It reports true when the turn must end here (the clock changed, or
// the core is now pinned). A Stall pins the core: it is skipped from then
// on, its published clock pins the global time, and the stall watchdog must
// eventually fire.
func (m *Machine) applyCoreFaults(mb *member) bool {
	restart := false
	inj := mb.fi
	for idx := range inj.faults {
		f := &inj.faults[idx]
		if inj.fired[idx] || mb.local < f.At {
			continue
		}
		inj.fired[idx] = true
		switch f.Kind {
		case faultinject.Panic:
			panic(fmt.Sprintf("faultinject: injected panic on core %d at local=%d", mb.id, mb.local))
		case faultinject.Stall:
			mb.pinned = true
			return true
		case faultinject.RingFlood:
			m.floodOutQ(mb.id, mb.local)
		case faultinject.ClockWarp:
			mb.local = max(mb.local-f.Dur, 0)
			m.publishLocal(mb.id, mb.local)
			restart = true
		}
	}
	return restart
}

// floodOutQ force-fills core i's OutQ until MustPush overflows with the
// ring's forensic payload. The manager may be draining concurrently; the
// tight producer loop outruns the consumer and terminates at the first
// failed Push.
func (m *Machine) floodOutQ(i int, local int64) {
	for {
		ev := event.Event{Kind: event.KindInvalid, Core: int32(i), Time: local}
		if !m.outQ[i].Push(ev) {
			m.outQ[i].MustPush(ev) // panics with the overflow forensics
		}
	}
}

// applyPanicFaults fires due Panic faults for a manager or shard-worker
// goroutine against its clock (the global time, or the shard's allowed
// gate).
func applyPanicFaults(inj *injected, clock int64, who string) {
	for idx := range inj.faults {
		f := &inj.faults[idx]
		if inj.fired[idx] || clock < f.At || f.Kind != faultinject.Panic {
			continue
		}
		inj.fired[idx] = true
		panic(fmt.Sprintf("faultinject: injected panic in %s at t=%d", who, clock))
	}
}

// delayHeld reports whether a due DelayDelivery fault still holds ev back
// at the core's current clock.
func delayHeld(delays []faultinject.Fault, ev event.Event, local int64) bool {
	for idx := range delays {
		f := &delays[idx]
		if ev.Time >= f.At && f.Matches(ev.Kind) && local < ev.Time+f.Dur {
			return true
		}
	}
	return false
}
