package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"slacksim/internal/cache"
	"slacksim/internal/event"
	"slacksim/internal/isa"
)

// OoO is the detailed out-of-order core model: 4-wide fetch/dispatch/
// issue/commit, a 64-entry ROB, physical register files with rename-map
// checkpoints for branch recovery, a unified issue queue with writeback
// wakeup lists and age-ordered select, a load/store queue with
// store-to-load forwarding, and non-blocking L1 caches with
// MSHRs. As in the paper's NetBurst-like target, operand values are read
// from the physical register file just before execution (§2.2), and loads
// read the shared functional memory when their access completes — which is
// exactly how slack-induced simulated-time distortions become visible to
// the workload (§3.2.3).
//
// The ROB and load/store queues are laid out as struct-of-arrays (parallel
// slices indexed by entry) with single-byte flag words: the commit walk,
// store-queue disambiguation scan, and parked-load sweep each touch one
// dense array instead of striding over fat entry structs, and none of the
// per-entry state holds a pointer the GC has to trace.
type OoO struct {
	cfg Config
	env Env

	stats  Stats
	active bool

	l1d, l1i *cache.L1
	pred     *predictor
	pd       *predecode

	// Register state.
	physIntVal   []int64
	physIntReady []bool
	physFPVal    []float64
	physFPReady  []bool
	mapInt       [isa.NumIntRegs]int16
	mapFP        [isa.NumFPRegs]int16
	freeInt      []int16
	freeFP       []int16

	// Front end.
	seqCounter   int64
	fetchPC      uint64
	fetchBlocked int64 // no fetch until this cycle (mispredict redirect)
	fetchMiss    bool  // waiting for an instruction fill
	fetchMissLn  uint64
	fetchQ       []fetched
	fetchHead    int // consumed prefix of fetchQ (compacted when drained or full)

	// Window.
	rob      robSoA
	robHead  int
	robCount int
	// The issue queue. A waiting instruction sits in iqSlot at its ROB
	// index; queuedSlots and readySlots are bitmasks over ROB slots (so
	// ROBSize <= 64), readySlots a subset of queuedSlots. waitInt/waitFP
	// hold, per physical register, the slots that dispatched while it was
	// unready; writeback drains that mask and re-checks only those slots.
	// Readiness is monotone while queued (a source physical register cannot
	// be reallocated before its reader issues: the next definer of the same
	// architectural register commits after the reader does), and squashed
	// slots leave both masks in recover, so a set ready bit stays true until
	// issue clears it. Waiter masks may keep stale bits of squashed slots;
	// a wake masks them with queuedSlots and re-checks, so they only ever
	// cost a spurious re-check.
	iqSlot                  []iqEntry
	queuedSlots, readySlots uint64
	waitInt, waitFP         []uint64

	lq                      lqSoA
	lqHead, lqTail, lqCount int
	sq                      sqSoA
	sqHead, sqTail, sqCount int

	ckpts    []checkpoint
	ckptFree []int8

	pending      []pendingOp // scheduled completions, unordered small slice
	pendingSpare []pendingOp // double buffer for completePending
	// pendMin is a lower bound on the earliest due time in pending
	// (MaxInt64 when empty): completePending skips its walk entirely while
	// now < pendMin. It may go stale-low after a walk or a recovery — that
	// only costs one wasted walk, never a missed completion.
	pendMin  int64
	mshrs    []mshr
	eventSeq int64

	// Commit-point serialisation (syscalls and atomics).
	serializeSeq int64 // -1 when inactive
	sysHoldFetch bool  // a dispatched syscall suspends fetch until it retires
	prog         bool  // progress flag for the current Tick
	drainRetryAt int64 // store-drain wants to retry at this cycle (-1 none)
	sysIssued    bool
	sysDone      bool
	sysRetryAt   int64 // re-issue a blocking syscall at this cycle (-1: none)
	sysResult    int64
	amoDoneAt    int64 // -1 when no AMO in progress

	divBusy   int64
	fpDivBusy int64
}

type fetched struct {
	pre    Pre
	pc     uint64
	npc    uint64 // predicted next pc
	rasTop int    // RAS top before this instruction's own push/pop
}

// robFlag packs a ROB entry's booleans into one byte of the flags array.
type robFlag uint8

const (
	rfValid robFlag = 1 << iota
	rfDone
	rfDstFP
	rfSys
	rfAMO
)

// robSoA is the reorder buffer in struct-of-arrays form: one slice per
// field, all indexed by the circular (robHead, robCount) window.
type robSoA struct {
	seq   []int64
	pre   []Pre
	pc    []uint64
	npc   []uint64 // predicted next pc
	dst   []int16  // physical destination, -1 none
	old   []int16  // previous mapping of the architectural destination
	lq    []int16  // LQ index, -1
	sq    []int16  // SQ index, -1
	ckpt  []int8   // checkpoint id, -1
	flags []robFlag
}

func newROBSoA(n int) robSoA {
	return robSoA{
		seq:   make([]int64, n),
		pre:   make([]Pre, n),
		pc:    make([]uint64, n),
		npc:   make([]uint64, n),
		dst:   make([]int16, n),
		old:   make([]int16, n),
		lq:    make([]int16, n),
		sq:    make([]int16, n),
		ckpt:  make([]int8, n),
		flags: make([]robFlag, n),
	}
}

// iqEntry captures the dispatch-time rename of each operand role so that
// execution reads the values this instruction's program-order position
// requires, regardless of younger redefinitions in flight. A physical index
// of -1 means "constant zero / unused" (integer) or "unused" (FP).
type iqEntry struct {
	seq    int64
	robIdx int16
	ps1    int16 // integer rs1
	ps2    int16 // integer rs2 (store data for integer stores)
	pf1    int16 // fp fs1, -1 unused
	pf2    int16 // fp fs2 (store data for fp stores), -1 unused
	class  fuClass
	need   uint8 // operands not yet observed ready (needPs1..needPf2)
}

// need bits: one per operand slot still awaiting a producer writeback.
// Readiness is monotonic while the entry is queued (a source physical
// register cannot be reallocated before the entry issues), so a cleared
// bit never has to be re-checked and need==0 means ready forever.
const (
	needPs1 uint8 = 1 << iota
	needPs2
	needPf1
	needPf2
)

type lqFlag uint8

const (
	lfValid lqFlag = 1 << iota
	lfDone
	// lfParked marks a load waiting on a condition that clears via another
	// micro-event (an older store's address/value, a store drain, a free
	// MSHR) rather than the passage of cycles; kickParkedLoads requeues it
	// when such an event fires. Event-driven waits keep a fully stalled
	// core's Tick a no-op, so the engine can freeze it instead of letting
	// it burn simulated cycles at host speed.
	lfParked
)

// lqSoA is the load queue in struct-of-arrays form. next carries the
// intrusive MSHR waiter chain: loads waiting on the same outstanding line
// are linked head-to-tail through next (index-based free list instead of a
// per-MSHR waiter slice), preserving FIFO wake order.
type lqSoA struct {
	seq   []int64
	addr  []uint64
	rob   []int16
	next  []int16 // MSHR waiter chain link, -1 end
	op    []isa.Op
	width []uint8
	flags []lqFlag
}

func newLQSoA(n int) lqSoA {
	return lqSoA{
		seq:   make([]int64, n),
		addr:  make([]uint64, n),
		rob:   make([]int16, n),
		next:  make([]int16, n),
		op:    make([]isa.Op, n),
		width: make([]uint8, n),
		flags: make([]lqFlag, n),
	}
}

type sqFlag uint8

const (
	sfValid sqFlag = 1 << iota
	sfReady        // address+value computed
	sfCommitted
	sfDrainWait // waiting for an upgrade/fill reply
)

// sqSoA is the store queue in struct-of-arrays form. The disambiguation
// scan in olderStore touches only seq/flags/addr, each a dense array.
type sqSoA struct {
	seq   []int64
	addr  []uint64
	value []uint64 // raw bits
	rob   []int16
	op    []isa.Op
	width []uint8
	flags []sqFlag
}

func newSQSoA(n int) sqSoA {
	return sqSoA{
		seq:   make([]int64, n),
		addr:  make([]uint64, n),
		value: make([]uint64, n),
		rob:   make([]int16, n),
		op:    make([]isa.Op, n),
		width: make([]uint8, n),
		flags: make([]sqFlag, n),
	}
}

type checkpoint struct {
	mapInt [isa.NumIntRegs]int16
	mapFP  [isa.NumFPRegs]int16
	rasTop int
}

type pendingKind uint8

const (
	pWriteback  pendingKind = iota // ALU/FP result
	pCTI                           // control transfer resolution (+ link writeback)
	pLoadIssue                     // address generated; run the load pipeline step
	pLoadDone                      // load data available: functional read + writeback
	pStoreReady                    // store address/value computed
)

type pendingOp struct {
	at     int64
	kind   pendingKind
	seq    int64
	robIdx int16
	lqIdx  int16

	valInt int64
	valFP  float64

	// CTI resolution data.
	actualNext uint64
	taken      bool
}

// mshr tracks one outstanding line. Waiting loads hang off an intrusive
// FIFO chain through lq.next (loadHead/loadTail are LQ indices, -1 empty).
type mshr struct {
	valid    bool
	line     uint64
	upgrade  bool
	instr    bool // instruction-side fill
	loadHead int16
	loadTail int16
	store    bool // the committed-store drain head waits on this line
}

// NewOoO builds an out-of-order core. A bad cache geometry is reported as
// an error so machine construction fails fast instead of panicking.
func NewOoO(cfg Config, env Env) (*OoO, error) {
	if cfg.ROBSize < 1 || cfg.ROBSize > 64 {
		return nil, fmt.Errorf("cpu: ROBSize %d outside 1..64", cfg.ROBSize)
	}
	l1d, err := cache.NewL1(env.CacheCfg)
	if err != nil {
		return nil, err
	}
	l1i, err := cache.NewL1(env.CacheCfg)
	if err != nil {
		return nil, err
	}
	c := &OoO{
		cfg:  cfg,
		env:  env,
		l1d:  l1d,
		l1i:  l1i,
		pred: newPredictor(&cfg),

		physIntVal:   make([]int64, cfg.PhysInt),
		physIntReady: make([]bool, cfg.PhysInt),
		physFPVal:    make([]float64, cfg.PhysFP),
		physFPReady:  make([]bool, cfg.PhysFP),
		freeInt:      make([]int16, 0, cfg.PhysInt),
		freeFP:       make([]int16, 0, cfg.PhysFP),
		waitInt:      make([]uint64, cfg.PhysInt),
		waitFP:       make([]uint64, cfg.PhysFP),

		fetchQ: make([]fetched, 0, cfg.FetchQSize),
		rob:    newROBSoA(cfg.ROBSize),
		iqSlot: make([]iqEntry, cfg.ROBSize),
		lq:     newLQSoA(cfg.LQSize),
		sq:     newSQSoA(cfg.SQSize),
		ckpts:  make([]checkpoint, cfg.MaxBranches),
		mshrs:  make([]mshr, cfg.MSHRs),

		// Steady state never outgrows these: at most one scheduled
		// completion per ROB entry plus a handful of same-cycle retries.
		pending:      make([]pendingOp, 0, cfg.ROBSize+8),
		pendingSpare: make([]pendingOp, 0, cfg.ROBSize+8),
		pendMin:      math.MaxInt64,
		ckptFree:     make([]int8, 0, cfg.MaxBranches),

		serializeSeq: -1,
		sysRetryAt:   -1,
		amoDoneAt:    -1,
		drainRetryAt: -1,
	}
	c.pd = newPredecode(&c.cfg, &c.env)
	for i := range c.mshrs {
		c.mshrs[i].loadHead, c.mshrs[i].loadTail = -1, -1
	}
	for i := int8(0); i < int8(cfg.MaxBranches); i++ {
		c.ckptFree = append(c.ckptFree, i)
	}
	c.resetRename()
	return c, nil
}

func (c *OoO) resetRename() {
	for r := 0; r < isa.NumIntRegs; r++ {
		c.mapInt[r] = int16(r)
		c.physIntVal[r] = 0
		c.physIntReady[r] = true
	}
	for r := 0; r < isa.NumFPRegs; r++ {
		c.mapFP[r] = int16(r)
		c.physFPVal[r] = 0
		c.physFPReady[r] = true
	}
	c.freeInt = c.freeInt[:0]
	for p := int16(isa.NumIntRegs); p < int16(c.cfg.PhysInt); p++ {
		c.freeInt = append(c.freeInt, p)
	}
	c.freeFP = c.freeFP[:0]
	for p := int16(isa.NumFPRegs); p < int16(c.cfg.PhysFP); p++ {
		c.freeFP = append(c.freeFP, p)
	}
}

// ID implements Core.
func (c *OoO) ID() int { return c.env.ID }

// Stats implements Core. The returned pointer is stable; the L1 cache
// counters are synchronised into it on each call.
func (c *OoO) Stats() *Stats {
	c.stats.L1D = c.l1d.Stats
	c.stats.L1I = c.l1i.Stats
	return &c.stats
}

// Active implements Core.
func (c *OoO) Active() bool { return c.active }

// MarkROI implements Core.
func (c *OoO) MarkROI(now int64) {
	if !c.stats.ROIMarked {
		c.stats.ROIMarked = true
		c.stats.ROIStartCycles = c.stats.Cycles + c.stats.IdleCycles
		c.stats.ROIStartCommitted = c.stats.Committed
	}
}

// Start implements Core.
func (c *OoO) Start(pc, sp uint64, arg int64) {
	c.resetRename()
	c.physIntVal[c.mapInt[isa.RegSP]] = int64(sp)
	c.physIntVal[c.mapInt[isa.RegA0]] = arg
	c.fetchPC = pc
	c.active = true
	c.fetchMiss = false
	c.fetchBlocked = 0
}

// Stop implements Core.
func (c *OoO) Stop() {
	c.active = false
	// Drop all in-flight state; the thread on this core is gone.
	c.fetchQ = c.fetchQ[:0]
	c.fetchHead = 0
	for i := range c.rob.flags {
		c.rob.flags[i] = 0
	}
	c.robHead, c.robCount = 0, 0
	c.queuedSlots, c.readySlots = 0, 0
	clear(c.waitInt)
	clear(c.waitFP)
	for i := range c.lq.flags {
		c.lq.flags[i] = 0
	}
	c.lqHead, c.lqTail, c.lqCount = 0, 0, 0
	for i := range c.sq.flags {
		c.sq.flags[i] = 0
	}
	c.sqHead, c.sqTail, c.sqCount = 0, 0, 0
	c.pending = c.pending[:0]
	c.pendMin = math.MaxInt64
	for i := range c.mshrs {
		c.mshrs[i] = mshr{loadHead: -1, loadTail: -1}
	}
	c.fetchMiss = false
	c.serializeSeq = -1
	c.sysHoldFetch = false
	c.sysIssued, c.sysDone = false, false
	c.sysRetryAt = -1
	c.amoDoneAt = -1
}

// DebugTrace, when non-nil, receives a line per interesting micro-event on
// cores whose id is in DebugCores (test diagnostics only; not used in
// normal runs).
var (
	DebugTrace func(s string)
	DebugCores = -1
)

// dbgOn reports whether tracing is enabled for this core. Call sites must
// gate on it so trace-argument construction (disassembly, Sprintf) stays
// entirely off the simulation's hot path.
func (c *OoO) dbgOn() bool { return DebugTrace != nil && c.env.ID == DebugCores }

func (c *OoO) dbg(now int64, format string, args ...any) {
	DebugTrace(fmt.Sprintf("t=%d c%d ", now, c.env.ID) + fmt.Sprintf(format, args...))
}

// Tick implements Core: one simulated cycle. Stages run commit-first so
// that each pipeline stage consumes the previous cycle's products.
func (c *OoO) Tick(now int64) bool {
	if !c.active {
		c.stats.IdleCycles++
		return false
	}
	c.stats.Cycles++
	c.prog = false
	c.commit(now)
	c.drainStores(now)
	c.completePending(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)
	return c.prog
}

// NextWork implements Core. Work scheduled at exactly `now` is returned:
// the caller has not yet simulated cycle `now`.
func (c *OoO) NextWork(now int64) int64 {
	next := int64(math.MaxInt64)
	consider := func(t int64) {
		if t >= now && t < next {
			next = t
		}
	}
	for i := range c.pending {
		consider(c.pending[i].at)
	}
	if c.sysRetryAt >= 0 {
		consider(c.sysRetryAt)
	}
	if c.amoDoneAt >= 0 {
		consider(c.amoDoneAt)
	}
	if c.drainRetryAt >= 0 {
		consider(c.drainRetryAt)
	}
	if c.fetchBlocked >= now && !c.fetchMiss {
		consider(c.fetchBlocked)
	}
	// An unpipelined divider can be busy with no corresponding pending op
	// (a squash purges the op but not the busy horizon); a ready divide in
	// the issue queue then becomes grantable only once the unit frees.
	if c.queuedSlots != 0 {
		consider(c.divBusy)
		consider(c.fpDivBusy)
	}
	return next
}

// WaitingSyscall implements Core.
func (c *OoO) WaitingSyscall() bool {
	return c.active && c.sysIssued && !c.sysDone && c.sysRetryAt < 0
}

// Skip implements Core.
func (c *OoO) Skip(n int64) {
	c.stats.Skipped += n
	if c.active {
		c.stats.Cycles += n
	} else {
		c.stats.IdleCycles += n
	}
}

// ---------------------------------------------------------------- fetch --

func (c *OoO) fetch(now int64) {
	if c.fetchMiss {
		c.stats.FetchStall++
		return
	}
	if c.sysHoldFetch {
		// A system call is in flight: the front end is held so the core is
		// fully quiescent — no new fetch misses — by the time the call
		// reaches the kernel and possibly puts this thread to sleep. (The
		// engine excludes sleeping cores from the global time; a straggler
		// request emitted after that point would carry a stale timestamp.)
		c.stats.SerializeOn++
		return
	}
	if now < c.fetchBlocked {
		return
	}
	var curLine uint64
	haveLine := false
	for n := 0; n < c.cfg.FetchWidth && c.fetchQLen() < c.cfg.FetchQSize; n++ {
		line := c.env.CacheCfg.LineAddr(c.fetchPC)
		if !haveLine || line != curLine {
			switch c.l1i.Probe(c.fetchPC, false) {
			case cache.Hit:
				curLine, haveLine = line, true
			case cache.Blocked:
				// A fill for this line is already outstanding; wait.
				c.stats.FetchStall++
				return
			default:
				if !c.startFetchMiss(line, now) {
					c.stats.FetchStall++
				}
				return
			}
		}
		pp, ok := c.pd.lookup(c.fetchPC)
		var scratch Pre
		if !ok {
			word, ok := c.env.Mem.LoadWord(c.fetchPC)
			if !ok {
				// Fetching unmapped memory: only reachable on a wrong path
				// or in a broken workload; stall until a redirect rescues us.
				return
			}
			scratch = makePre(&c.cfg, isa.Decode(word))
			pp = &scratch
		}
		rasTop := c.pred.snapshotRAS()
		npc := c.fetchPC + isa.InstBytes
		taken := false
		if pp.Flags&pfCTI != 0 {
			npc, taken = c.pred.predict(pp, c.fetchPC)
		}
		if len(c.fetchQ) == cap(c.fetchQ) {
			// Slide the live entries down instead of letting append grow
			// the array behind a queue that never drains (a full window).
			c.fetchQ = c.fetchQ[:copy(c.fetchQ, c.fetchQ[c.fetchHead:])]
			c.fetchHead = 0
		}
		c.fetchQ = append(c.fetchQ, fetched{pre: *pp, pc: c.fetchPC, npc: npc, rasTop: rasTop})
		if c.dbgOn() {
			c.dbg(now, "fetch pc=%#x %s npc=%#x", c.fetchPC, pp.Inst().Disassemble(c.fetchPC), npc)
		}
		c.stats.Fetched++
		c.prog = true
		c.fetchPC = npc
		if taken {
			break // fetch group ends at a predicted-taken transfer
		}
	}
}

func (c *OoO) startFetchMiss(line uint64, now int64) bool {
	if c.findMSHR(line) != nil {
		c.fetchMiss, c.fetchMissLn = true, line
		return true
	}
	m := c.allocMSHR(line)
	if m == nil {
		return false
	}
	m.instr = true
	victimAddr, victimDirty, victimValid := c.l1i.Reserve(line)
	c.fetchMiss, c.fetchMissLn = true, line
	if c.dbgOn() {
		c.dbg(now, "fetchmiss line=%#x", line)
	}
	c.send(event.Event{Kind: event.KFetch, Time: now, Addr: line}, victimAddr, victimDirty, victimValid)
	c.prog = true
	return true
}

func (c *OoO) fetchQLen() int { return len(c.fetchQ) - c.fetchHead }

// ------------------------------------------------------------- dispatch --

func (c *OoO) dispatch(now int64) {
	for n := 0; n < c.cfg.Width && c.fetchQLen() > 0; n++ {
		if c.serializeSeq >= 0 {
			c.stats.SerializeOn++
			return
		}
		if c.robCount >= c.cfg.ROBSize {
			c.stats.ROBStall++
			return
		}
		f := &c.fetchQ[c.fetchHead]
		p := &f.pre
		fl := p.Flags

		needsIQ := fl&pfNeedsIQ != 0
		if needsIQ && bits.OnesCount64(c.queuedSlots) >= c.cfg.IQSize {
			return
		}
		isLoad, isStore := fl&pfLoad != 0, fl&pfStore != 0
		if isLoad && c.lqCount >= c.cfg.LQSize {
			c.stats.LSQStall++
			return
		}
		if isStore && c.sqCount >= c.cfg.SQSize {
			c.stats.LSQStall++
			return
		}
		needCkpt := fl&pfNeedCkpt != 0
		if needCkpt && len(c.ckptFree) == 0 {
			return
		}
		if p.IntDst >= 0 && len(c.freeInt) == 0 {
			return
		}
		if p.FPDst >= 0 && len(c.freeFP) == 0 {
			return
		}

		// All resources available: dispatch.
		c.prog = true
		c.seqCounter++
		seq := c.seqCounter
		robIdx := int16((c.robHead + c.robCount) % c.cfg.ROBSize)
		if needsIQ {
			// Capture source renames before updating the destination
			// mapping (an instruction may read the register it writes).
			c.enqueue(p, seq, robIdx)
		}

		var flags robFlag = rfValid
		dst, old := int16(-1), int16(-1)

		switch {
		case p.IntDst >= 0:
			ph := c.freeInt[len(c.freeInt)-1]
			c.freeInt = c.freeInt[:len(c.freeInt)-1]
			c.physIntReady[ph] = false
			dst, old = ph, c.mapInt[p.IntDst]
			c.mapInt[p.IntDst] = ph
		case p.FPDst >= 0:
			ph := c.freeFP[len(c.freeFP)-1]
			c.freeFP = c.freeFP[:len(c.freeFP)-1]
			c.physFPReady[ph] = false
			dst, old = ph, c.mapFP[p.FPDst]
			flags |= rfDstFP
			c.mapFP[p.FPDst] = ph
		}

		ckptID := int8(-1)
		if needCkpt {
			id := c.ckptFree[len(c.ckptFree)-1]
			c.ckptFree = c.ckptFree[:len(c.ckptFree)-1]
			ck := &c.ckpts[id]
			ck.mapInt = c.mapInt
			ck.mapFP = c.mapFP
			ck.rasTop = f.rasTop
			ckptID = id
			c.stats.Branches++
		} else if p.Op == isa.OpJAL {
			c.stats.Branches++
		}

		lqIdx, sqIdx := int16(-1), int16(-1)
		if isLoad {
			lqIdx = int16(c.lqTail)
			i := c.lqTail
			c.lq.seq[i] = seq
			c.lq.rob[i] = robIdx
			c.lq.op[i] = p.Op
			c.lq.width[i] = p.MemW
			c.lq.next[i] = -1
			c.lq.flags[i] = lfValid
			c.lqTail = (c.lqTail + 1) % c.cfg.LQSize
			c.lqCount++
			c.stats.Loads++
		}
		if isStore {
			sqIdx = int16(c.sqTail)
			i := c.sqTail
			c.sq.seq[i] = seq
			c.sq.rob[i] = robIdx
			c.sq.op[i] = p.Op
			c.sq.width[i] = p.MemW
			c.sq.flags[i] = sfValid
			c.sqTail = (c.sqTail + 1) % c.cfg.SQSize
			c.sqCount++
			c.stats.Stores++
		}

		switch {
		case fl&pfSyscall != 0:
			flags |= rfSys
			c.serializeSeq = seq
			c.sysHoldFetch = true
			c.sysIssued, c.sysDone = false, false
			c.sysRetryAt = -1
		case fl&pfAMO != 0:
			flags |= rfAMO
			c.serializeSeq = seq
			c.amoDoneAt = -1
		case !needsIQ:
			flags |= rfDone // NOP/Invalid: complete at dispatch
		}

		ri := int(robIdx)
		c.rob.seq[ri] = seq
		c.rob.pre[ri] = *p
		c.rob.pc[ri] = f.pc
		c.rob.npc[ri] = f.npc
		c.rob.dst[ri] = dst
		c.rob.old[ri] = old
		c.rob.lq[ri] = lqIdx
		c.rob.sq[ri] = sqIdx
		c.rob.ckpt[ri] = ckptID
		c.rob.flags[ri] = flags
		c.robCount++

		c.fetchHead++
		if c.fetchHead == len(c.fetchQ) {
			c.fetchQ = c.fetchQ[:0]
			c.fetchHead = 0
		}
	}
}

// enqueue puts p, dispatched as seq, into ROB slot robIdx of the issue
// queue. It records the dispatch-time physical register of each operand
// role, following the predecoded capture plan (integer r0 maps to -1,
// constant zero), and registers the slot as a waiter on each operand not
// yet ready; with none, the entry is ready at once.
func (c *OoO) enqueue(p *Pre, seq int64, robIdx int16) {
	e := &c.iqSlot[robIdx]
	*e = iqEntry{seq: seq, robIdx: robIdx, ps1: -1, ps2: -1, pf1: -1, pf2: -1, class: p.Class}
	bit := uint64(1) << robIdx
	fl := p.Flags
	if fl&pfReadInt1 != 0 && p.Rs1 != isa.RegZero {
		e.ps1 = c.mapInt[p.Rs1]
		if !c.physIntReady[e.ps1] {
			e.need |= needPs1
			c.waitInt[e.ps1] |= bit
		}
	}
	if fl&pfReadInt2 != 0 && p.Rs2 != isa.RegZero {
		e.ps2 = c.mapInt[p.Rs2]
		if !c.physIntReady[e.ps2] {
			e.need |= needPs2
			c.waitInt[e.ps2] |= bit
		}
	}
	if fl&pfReadFP1 != 0 {
		e.pf1 = c.mapFP[p.Rs1]
		if !c.physFPReady[e.pf1] {
			e.need |= needPf1
			c.waitFP[e.pf1] |= bit
		}
	}
	if fl&pfReadFP2 != 0 {
		e.pf2 = c.mapFP[p.Rs2]
		if !c.physFPReady[e.pf2] {
			e.need |= needPf2
			c.waitFP[e.pf2] |= bit
		}
	}
	c.queuedSlots |= bit
	if e.need == 0 {
		c.readySlots |= bit
	}
}

// wake drains *waiters, the slots waiting on a register just written, and
// marks the queued ones whose operands are now all ready.
func (c *OoO) wake(waiters *uint64) {
	for m := *waiters & c.queuedSlots; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		if c.iqReady(&c.iqSlot[s]) {
			c.readySlots |= 1 << s
		}
	}
	*waiters = 0
}

// ---------------------------------------------------------------- issue --

// iqReady refreshes the entry's need mask against the ready files and
// reports whether every operand has been produced. Cleared bits are
// sticky (see the need constants), so operands already observed ready
// cost no register-file load on later scans.
func (c *OoO) iqReady(e *iqEntry) bool {
	n := e.need
	if n == 0 {
		return true
	}
	if n&needPs1 != 0 && c.physIntReady[e.ps1] {
		n &^= needPs1
	}
	if n&needPs2 != 0 && c.physIntReady[e.ps2] {
		n &^= needPs2
	}
	if n&needPf1 != 0 && c.physFPReady[e.pf1] {
		n &^= needPf1
	}
	if n&needPf2 != 0 && c.physFPReady[e.pf2] {
		n &^= needPf2
	}
	e.need = n
	return n == 0
}

// issue grants up to IssueWidth ready instructions, oldest first: it walks
// the ready mask in age order, slots from robHead upward and then the
// wrapped low slots. This selects exactly the same instructions as
// repeated oldest-ready-first scans: within a cycle operand readiness never
// changes (writebacks happen in commit and completePending) and FU
// availability only decreases, so an entry skipped at its age position
// would be skipped by every later scan of this cycle too.
func (c *OoO) issue(now int64) {
	if c.readySlots == 0 {
		return
	}
	intALU, intMul, fpAdd, fpMul, memPorts := c.cfg.IntALUs, c.cfg.IntMuls, c.cfg.FPAdds, c.cfg.FPMuls, c.cfg.MemPorts
	budget := c.cfg.IssueWidth
	older := c.readySlots >> c.robHead << c.robHead
	for _, m := range [2]uint64{older, c.readySlots &^ older} {
		for ; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			e := &c.iqSlot[s]
			if !c.fuAvailable(e.class, now, intALU, intMul, fpAdd, fpMul, memPorts) {
				continue
			}
			c.prog = true
			c.consumeFU(e.class, now, &intALU, &intMul, &fpAdd, &fpMul, &memPorts)
			c.queuedSlots &^= 1 << s
			c.readySlots &^= 1 << s
			c.execute(e, now)
			if budget--; budget == 0 {
				return
			}
		}
	}
}

func (c *OoO) fuAvailable(class fuClass, now int64, intALU, intMul, fpAdd, fpMul, memPorts int) bool {
	switch class {
	case fuMem:
		return memPorts > 0
	case fuIntMul:
		return intMul > 0
	case fuIntDiv:
		return intMul > 0 && now >= c.divBusy
	case fuFPMul:
		return fpMul > 0
	case fuFPDiv:
		return fpMul > 0 && now >= c.fpDivBusy
	case fuFPAdd:
		return fpAdd > 0
	default:
		return intALU > 0
	}
}

func (c *OoO) consumeFU(class fuClass, now int64, intALU, intMul, fpAdd, fpMul, memPorts *int) {
	switch class {
	case fuMem:
		*memPorts--
	case fuIntMul:
		*intMul--
	case fuIntDiv:
		*intMul--
		c.divBusy = now + c.cfg.DivLat // unpipelined divider
	case fuFPMul:
		*fpMul--
	case fuFPDiv:
		*fpMul--
		c.fpDivBusy = now + c.cfg.FPSqrtLat
	case fuFPAdd:
		*fpAdd--
	default:
		*intALU--
	}
}

// isFPUnit reports whether in occupies the FP adder pipeline (classOf's
// catch-all for FP ops that are not multiplies/divides/memory).
func isFPUnit(in isa.Inst) bool {
	if in.FPDst() >= 0 {
		return true
	}
	switch in.Op {
	case isa.OpFEQ, isa.OpFLT, isa.OpFLE, isa.OpFCVTWD, isa.OpFMVXD:
		return true
	}
	return false
}

// execute reads operand values just before execution (paper §2.2) from the
// dispatch-time physical registers and schedules the result via the
// predecoded record's execute function — one indirect call, no opcode
// switch.
func (c *OoO) execute(e *iqEntry, now int64) {
	ri := int(e.robIdx)
	p := &c.rob.pre[ri]

	a, b := c.physOrZero(e.ps1), c.physOrZero(e.ps2)
	var fa, fb float64
	if e.pf1 >= 0 {
		fa = c.physFPVal[e.pf1]
	}
	if e.pf2 >= 0 {
		fb = c.physFPVal[e.pf2]
	}

	if p.Flags&pfMemData != 0 {
		c.executeMem(e, p, a, b, fb, now)
		return
	}

	res := p.Exec(p, c.rob.pc[ri], a, b, fa, fb)
	op := pendingOp{at: now + int64(p.Lat), seq: e.seq, robIdx: e.robIdx, lqIdx: -1, valInt: res.intVal, valFP: res.fpVal}
	if res.isCTI {
		op.kind = pCTI
		op.actualNext = res.next
		op.taken = res.taken
	} else {
		op.kind = pWriteback
	}
	c.addPending(op)
}

// addPending queues a scheduled completion, maintaining the earliest-due
// bound that lets completePending skip cycles with nothing due.
func (c *OoO) addPending(op pendingOp) {
	if op.at < c.pendMin {
		c.pendMin = op.at
	}
	c.pending = append(c.pending, op)
}

func (c *OoO) physOrZero(p int16) int64 {
	if p < 0 {
		return 0
	}
	return c.physIntVal[p]
}

func (c *OoO) executeMem(e *iqEntry, p *Pre, base, ival int64, fval float64, now int64) {
	ri := int(e.robIdx)
	addr := uint64(base + int64(p.Imm))
	if p.Flags&pfLoad != 0 {
		lqi := c.rob.lq[ri]
		c.lq.addr[lqi] = addr
		c.addPending(pendingOp{
			at: now + c.cfg.AGULat, kind: pLoadIssue, seq: c.rob.seq[ri], robIdx: e.robIdx, lqIdx: lqi,
		})
		return
	}
	sqi := c.rob.sq[ri]
	c.sq.addr[sqi] = addr
	if p.Op == isa.OpFSD {
		c.sq.value[sqi] = math.Float64bits(fval)
	} else {
		c.sq.value[sqi] = uint64(ival)
	}
	c.addPending(pendingOp{
		at: now + c.cfg.AGULat, kind: pStoreReady, seq: c.rob.seq[ri], robIdx: e.robIdx, lqIdx: -1,
	})
}

// ----------------------------------------------------------- completion --

func (c *OoO) completePending(now int64) {
	if now < c.pendMin {
		// Nothing can be due: pendMin is a lower bound on every queued
		// op's time. A skipped walk would only have re-queued every op.
		return
	}
	// Swap buffers: handlers (and load retries) append to the fresh
	// c.pending while we walk the old list.
	cur := c.pending
	c.pending = c.pendingSpare[:0]
	c.pendMin = math.MaxInt64
	for i := range cur {
		op := cur[i]
		if op.at > now {
			if op.at < c.pendMin {
				c.pendMin = op.at
			}
			c.pending = append(c.pending, op)
			continue
		}
		c.prog = true
		switch op.kind {
		case pWriteback:
			c.stats.OpsWB++
			ri := int(op.robIdx)
			if c.rob.flags[ri]&rfValid != 0 && c.rob.seq[ri] == op.seq {
				c.writeback(op.robIdx, op.valInt, op.valFP)
				c.rob.flags[ri] |= rfDone
			}
		case pCTI:
			c.resolveCTI(op, now)
		case pStoreReady:
			ri := int(op.robIdx)
			if c.rob.flags[ri]&rfValid != 0 && c.rob.seq[ri] == op.seq {
				c.sq.flags[c.rob.sq[ri]] |= sfReady
				c.rob.flags[ri] |= rfDone
				c.kickParkedLoads(now)
			}
		case pLoadIssue:
			c.stats.OpsLoadIssue++
			c.loadStep(op, now)
		case pLoadDone:
			c.stats.OpsLoadDone++
			c.finishLoad(op, now)
		}
	}
	c.pendingSpare = cur[:0]
}

func (c *OoO) writeback(robIdx int16, vi int64, vf float64) {
	ri := int(robIdx)
	dst := c.rob.dst[ri]
	if dst < 0 {
		return
	}
	if c.rob.flags[ri]&rfDstFP != 0 {
		c.physFPVal[dst] = vf
		c.physFPReady[dst] = true
		c.wake(&c.waitFP[dst])
	} else {
		c.physIntVal[dst] = vi
		c.physIntReady[dst] = true
		c.wake(&c.waitInt[dst])
	}
}

func (c *OoO) resolveCTI(op pendingOp, now int64) {
	ri := int(op.robIdx)
	if c.rob.flags[ri]&rfValid == 0 || c.rob.seq[ri] != op.seq {
		return
	}
	c.writeback(op.robIdx, op.valInt, op.valFP) // link register, if any
	c.rob.flags[ri] |= rfDone
	c.pred.update(&c.rob.pre[ri], c.rob.pc[ri], op.taken, op.actualNext)
	if ck := c.rob.ckpt[ri]; ck >= 0 {
		c.ckptFree = append(c.ckptFree, ck)
		c.rob.ckpt[ri] = -1
		if op.actualNext != c.rob.npc[ri] {
			c.recover(op.robIdx, ck, op.actualNext, now)
		}
	} else if op.actualNext != c.rob.npc[ri] {
		// JAL with an exact target cannot mispredict; defensive only.
		panic(fmt.Sprintf("cpu: unpredicted mispredict at pc %#x", c.rob.pc[ri]))
	}
}

// recover squashes everything younger than the mispredicted instruction at
// rob index brIdx, restores the rename maps from its checkpoint, and
// redirects fetch.
func (c *OoO) recover(brIdx int16, ckpt int8, target uint64, now int64) {
	c.stats.Mispred++
	brSeq := c.rob.seq[brIdx]

	// Restore rename state.
	ck := &c.ckpts[ckpt]
	c.mapInt = ck.mapInt
	c.mapFP = ck.mapFP
	c.pred.restoreRAS(ck.rasTop)

	// Walk the ROB tail-to-branch, undoing younger entries.
	for c.robCount > 0 {
		ti := (c.robHead + c.robCount - 1) % c.cfg.ROBSize
		if c.rob.seq[ti] <= brSeq {
			break
		}
		fl := c.rob.flags[ti]
		if dst := c.rob.dst[ti]; dst >= 0 {
			if fl&rfDstFP != 0 {
				c.freeFP = append(c.freeFP, dst)
			} else {
				c.freeInt = append(c.freeInt, dst)
			}
		}
		if ckp := c.rob.ckpt[ti]; ckp >= 0 {
			c.ckptFree = append(c.ckptFree, ckp)
		}
		if lqi := c.rob.lq[ti]; lqi >= 0 {
			c.lq.flags[lqi] = 0
			c.lqTail = int(lqi)
			c.lqCount--
		}
		if sqi := c.rob.sq[ti]; sqi >= 0 {
			c.sq.flags[sqi] = 0
			c.sqTail = int(sqi)
			c.sqCount--
		}
		if fl&(rfSys|rfAMO) != 0 {
			// A squashed serialising instruction releases the stall.
			c.serializeSeq = -1
			c.sysRetryAt = -1
			c.amoDoneAt = -1
			c.sysHoldFetch = false
		}
		c.rob.flags[ti] = 0
		c.queuedSlots &^= 1 << ti
		c.readySlots &^= 1 << ti
		c.robCount--
		c.stats.Squashed++
	}

	// Purge younger scheduled completions.
	kept := c.pending[:0]
	for _, op := range c.pending {
		if op.seq <= brSeq {
			kept = append(kept, op)
		}
	}
	c.pending = kept

	// Drop squashed loads from MSHR waiter chains (fills still complete and
	// install the line; nobody consumes the data). Surviving loads keep
	// their relative order.
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if !m.valid {
			continue
		}
		head, tail := int16(-1), int16(-1)
		for lqi := m.loadHead; lqi >= 0; {
			nxt := c.lq.next[lqi]
			if c.lq.flags[lqi]&lfValid != 0 && c.lq.seq[lqi] <= brSeq {
				if head < 0 {
					head = lqi
				} else {
					c.lq.next[tail] = lqi
				}
				tail = lqi
				c.lq.next[lqi] = -1
			}
			lqi = nxt
		}
		m.loadHead, m.loadTail = head, tail
	}

	// Redirect the front end.
	c.fetchQ = c.fetchQ[:0]
	c.fetchHead = 0
	c.fetchPC = target
	c.fetchBlocked = now + 1
	c.fetchMiss = false
}

// ----------------------------------------------------------------- load --

// loadStep runs after address generation: disambiguate against older
// stores, then forward or access the L1.
func (c *OoO) loadStep(op pendingOp, now int64) {
	lqi := op.lqIdx
	if c.lq.flags[lqi]&lfValid == 0 || c.lq.seq[lqi] != op.seq {
		return // squashed
	}
	addr := c.lq.addr[lqi]
	st, conflict, unknown := c.olderStore(lqi)
	if unknown {
		// An older store address is still unresolved; the store's AGU
		// completion kicks us.
		c.lq.flags[lqi] |= lfParked
		return
	}
	if conflict {
		if st < 0 {
			// Overlapping but non-forwardable store: wait for it to drain.
			c.lq.flags[lqi] |= lfParked
			return
		}
		// Store-to-load forwarding.
		done := op
		done.kind = pLoadDone
		done.at = now + 1
		done.valInt = int64(c.sq.value[st])
		done.taken = true // flag: value forwarded, skip the memory read
		c.reschedule(done)
		return
	}

	// Access the L1 data cache.
	switch c.l1d.Probe(addr, false) {
	case cache.Hit:
		done := op
		done.kind = pLoadDone
		done.at = now + c.env.CacheCfg.L1HitLat
		c.reschedule(done)
	case cache.Blocked:
		line := c.env.CacheCfg.LineAddr(addr)
		if m := c.findMSHR(line); m != nil {
			c.mshrAddLoad(m, lqi)
			return
		}
		// Line pending with no MSHR (fill already applied this cycle);
		// retry next cycle.
		op.at = now + 1
		c.reschedule(op)
	default: // miss
		line := c.env.CacheCfg.LineAddr(addr)
		if m := c.findMSHR(line); m != nil {
			c.mshrAddLoad(m, lqi)
			return
		}
		m := c.allocMSHR(line)
		if m == nil {
			c.lq.flags[lqi] |= lfParked // all MSHRs busy; a fill delivery kicks us
			return
		}
		c.mshrAddLoad(m, lqi)
		victimAddr, victimDirty, victimValid := c.l1d.Reserve(line)
		c.send(event.Event{Kind: event.KReadShared, Time: now, Addr: line}, victimAddr, victimDirty, victimValid)
		c.maybePrefetch(line, now)
	}
}

// mshrAddLoad appends LQ index lqi to m's intrusive waiter chain. A load is
// on at most one chain: once appended it is neither parked nor pending, so
// no other loadStep can see it until the fill delivers and resets the chain.
func (c *OoO) mshrAddLoad(m *mshr, lqi int16) {
	c.lq.next[lqi] = -1
	if m.loadHead < 0 {
		m.loadHead = lqi
	} else {
		c.lq.next[m.loadTail] = lqi
	}
	m.loadTail = lqi
}

// maybePrefetch issues a next-line prefetch after a demand miss when the
// prefetcher is enabled, the line is absent, and an MSHR is free.
func (c *OoO) maybePrefetch(demand uint64, now int64) {
	if !c.cfg.Prefetch {
		return
	}
	next := demand + uint64(c.env.CacheCfg.LineSize)
	if c.l1d.StateOf(next) != cache.Invalid || c.findMSHR(next) != nil {
		return
	}
	m := c.allocMSHR(next)
	if m == nil {
		return
	}
	c.stats.Prefetches++
	victimAddr, victimDirty, victimValid := c.l1d.Reserve(next)
	c.send(event.Event{Kind: event.KReadShared, Time: now, Addr: next}, victimAddr, victimDirty, victimValid)
}

// olderStore scans the store queue for stores older than the load at LQ
// index lqi touching the same word. Returns (forwardableStoreIdx, conflict,
// unknownAddr); the index is -1 when no forwardable store exists.
func (c *OoO) olderStore(lqi int16) (st int, conflict, unknown bool) {
	ldSeq := c.lq.seq[lqi]
	ldAddr := c.lq.addr[lqi]
	wordAddr := ldAddr &^ 7
	best := -1
	var bestSeq int64 = -1
	for i := range c.sq.flags {
		fl := c.sq.flags[i]
		if fl&sfValid == 0 || c.sq.seq[i] >= ldSeq {
			continue
		}
		if fl&sfReady == 0 {
			return -1, false, true
		}
		if c.sq.addr[i]&^7 != wordAddr {
			continue
		}
		if c.sq.seq[i] > bestSeq {
			best, bestSeq = i, c.sq.seq[i]
		}
	}
	if best < 0 {
		return -1, false, false
	}
	if c.sq.addr[best] == ldAddr && c.sq.width[best] == c.lq.width[lqi] {
		return best, true, false
	}
	return -1, true, false // overlap, not forwardable: wait for drain
}

// finishLoad delivers the load's data: a forwarded value, or a functional
// read of shared memory performed now — the simulated instant the data
// arrives, so cross-thread value races resolve in simulation-time order.
func (c *OoO) finishLoad(op pendingOp, now int64) {
	lqi := op.lqIdx
	if c.lq.flags[lqi]&lfValid == 0 || c.lq.seq[lqi] != op.seq {
		return // squashed
	}
	var raw uint64
	if op.taken {
		raw = uint64(op.valInt) // forwarded
	} else {
		raw = c.readMem(c.lq.op[lqi], c.lq.addr[lqi])
	}
	robIdx := c.lq.rob[lqi]
	if c.lq.op[lqi] == isa.OpFLD {
		c.writeback(robIdx, 0, math.Float64frombits(raw))
	} else {
		c.writeback(robIdx, extend(c.lq.op[lqi], raw), 0)
	}
	c.lq.flags[lqi] |= lfDone
	c.rob.flags[robIdx] |= rfDone
}

func (c *OoO) readMem(op isa.Op, addr uint64) uint64 {
	switch op {
	case isa.OpLD, isa.OpFLD:
		v, _ := c.env.Mem.LoadWord(addr)
		return v
	case isa.OpLW, isa.OpLWU:
		v, _ := c.env.Mem.Load32(addr)
		return uint64(v)
	case isa.OpLB, isa.OpLBU:
		v, _ := c.env.Mem.Load8(addr)
		return uint64(v)
	}
	return 0
}

// extend applies the load's sign/zero extension to raw bits.
func extend(op isa.Op, raw uint64) int64 {
	switch op {
	case isa.OpLW:
		return int64(int32(uint32(raw)))
	case isa.OpLWU:
		return int64(uint32(raw))
	case isa.OpLB:
		return int64(int8(uint8(raw)))
	case isa.OpLBU:
		return int64(uint8(raw))
	}
	return int64(raw)
}

// reschedule re-enqueues op on the (fresh) pending list.
func (c *OoO) reschedule(op pendingOp) {
	c.addPending(op)
}

// kickParkedLoads requeues every parked load for another loadStep pass.
func (c *OoO) kickParkedLoads(now int64) {
	for i := range c.lq.flags {
		if c.lq.flags[i]&(lfValid|lfParked) != lfValid|lfParked {
			continue
		}
		c.lq.flags[i] &^= lfParked
		c.stats.Kicks++
		c.addPending(pendingOp{
			at: now, kind: pLoadIssue, seq: c.lq.seq[i], robIdx: c.lq.rob[i], lqIdx: int16(i),
		})
	}
}
