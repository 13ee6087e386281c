package cpu

import (
	"fmt"

	"slacksim/internal/cache"
	"slacksim/internal/event"
	"slacksim/internal/isa"
)

// ---------------------------------------------------------- store drain --

// drainStores retires committed stores from the head of the store queue
// into the cache hierarchy, in order, one outstanding miss at a time (the
// write buffer of the paper's NetBurst-like target also drains in order).
// The functional memory write already happened at commit; this models only
// the coherence/timing side.
func (c *OoO) drainStores(now int64) {
	c.drainRetryAt = -1
	if c.sqCount == 0 {
		return
	}
	h := c.sqHead
	fl := c.sq.flags[h]
	if fl&sfValid == 0 || fl&sfCommitted == 0 || fl&sfDrainWait != 0 {
		return
	}
	addr := c.sq.addr[h]
	line := c.env.CacheCfg.LineAddr(addr)
	switch c.l1d.Probe(addr, true) {
	case cache.Hit:
		c.freeSQHead(now)
		c.prog = true
	case cache.NeedUpgrade:
		if m := c.findMSHR(line); m != nil {
			m.store = true
			c.sq.flags[h] |= sfDrainWait
			c.prog = true
			return
		}
		m := c.allocMSHR(line)
		if m == nil {
			return // all MSHRs busy; retried after the next fill delivery
		}
		m.store = true
		m.upgrade = true
		c.sq.flags[h] |= sfDrainWait
		c.prog = true
		c.sendPlain(event.Event{Kind: event.KUpgrade, Time: now, Addr: line})
	case cache.Blocked:
		if m := c.findMSHR(line); m != nil {
			m.store = true
			c.sq.flags[h] |= sfDrainWait
			c.prog = true
			return
		}
		// The fill landed this very cycle; retry next cycle.
		c.drainRetryAt = now + 1
	default: // MissExcl
		if m := c.findMSHR(line); m != nil {
			// A read miss for the line is in flight; wait for it, then
			// re-probe (which will then find a NeedUpgrade or Hit).
			m.store = true
			c.sq.flags[h] |= sfDrainWait
			c.prog = true
			return
		}
		m := c.allocMSHR(line)
		if m == nil {
			return // all MSHRs busy; retried after the next fill delivery
		}
		m.store = true
		victimAddr, victimDirty, victimValid := c.l1d.Reserve(line)
		c.send(event.Event{Kind: event.KReadExcl, Time: now, Addr: line}, victimAddr, victimDirty, victimValid)
		c.sq.flags[h] |= sfDrainWait
		c.prog = true
	}
}

// intVal reads the architecturally-current value of integer register r via
// the rename map. Only valid at serialised commit points (syscalls, AMOs),
// where no younger in-flight definitions exist.
func (c *OoO) intVal(r uint8) int64 {
	if r == isa.RegZero {
		return 0
	}
	return c.physIntVal[c.mapInt[r]]
}

func (c *OoO) freeSQHead(now int64) {
	c.sq.flags[c.sqHead] = 0
	c.sqHead = (c.sqHead + 1) % c.cfg.SQSize
	c.sqCount--
	// A load parked on a conflict with this store can now proceed.
	c.kickParkedLoads(now)
}

// --------------------------------------------------------------- commit --

func (c *OoO) commit(now int64) {
	for n := 0; n < c.cfg.Width && c.robCount > 0; n++ {
		h := c.robHead
		fl := c.rob.flags[h]
		if fl&rfValid == 0 {
			panic("cpu: invalid ROB head")
		}
		if fl&rfDone == 0 {
			switch {
			case fl&rfSys != 0:
				c.stepSyscall(h, now)
			case fl&rfAMO != 0:
				c.stepAMO(h, now)
			}
			if fl = c.rob.flags[h]; fl&rfDone == 0 {
				c.stats.HeadStall++
				return
			}
		}
		if c.rob.pre[h].Op == isa.OpInvalid {
			panic(fmt.Sprintf("cpu: core %d committed invalid instruction at pc %#x", c.env.ID, c.rob.pc[h]))
		}
		// Retire.
		if sqi := c.rob.sq[h]; sqi >= 0 {
			c.writeMem(c.sq.op[sqi], c.sq.addr[sqi], c.sq.value[sqi])
			c.sq.flags[sqi] |= sfCommitted
		}
		if lqi := c.rob.lq[h]; lqi >= 0 {
			c.lq.flags[lqi] = 0
			c.lqHead = (int(lqi) + 1) % c.cfg.LQSize
			c.lqCount--
		}
		if c.rob.dst[h] >= 0 {
			if fl&rfDstFP != 0 {
				c.freeFP = append(c.freeFP, c.rob.old[h])
			} else {
				c.freeInt = append(c.freeInt, c.rob.old[h])
			}
		}
		if ck := c.rob.ckpt[h]; ck >= 0 {
			// Normally freed at resolution; defensive.
			c.ckptFree = append(c.ckptFree, ck)
		}
		if c.rob.seq[h] == c.serializeSeq {
			c.serializeSeq = -1
			c.sysHoldFetch = false
		}
		if c.dbgOn() {
			c.dbg(now, "commit pc=%#x %s", c.rob.pc[h], c.rob.pre[h].Inst().Disassemble(c.rob.pc[h]))
		}
		c.rob.flags[h] = 0
		c.robHead = (c.robHead + 1) % c.cfg.ROBSize
		c.robCount--
		c.stats.Committed++
		c.prog = true
	}
}

// stepSyscall advances the commit-point syscall state machine for the ROB
// head at index h. Syscalls travel to the simulation manager as OutQ
// events, mirroring the paper's emulation of system functions outside the
// simulator; blocking primitives reply "retry" and the core spins in
// simulated time.
func (c *OoO) stepSyscall(h int, now int64) {
	if c.sysDone {
		c.writebackAt(h, c.sysResult)
		c.rob.flags[h] |= rfDone
		return
	}
	if !c.sysIssued {
		// Issue only once the core is quiescent: every committed store has
		// drained into the hierarchy and no data-side miss is outstanding.
		// System calls may put this thread to sleep in the kernel; nothing
		// with an older timestamp may be emitted after that.
		if c.sqCount > 0 {
			return
		}
		for i := range c.mshrs {
			if c.mshrs[i].valid && !c.mshrs[i].instr {
				return
			}
		}
		c.sysIssued = true
		c.prog = true
		c.stats.Syscalls++
		c.sendPlain(event.Event{
			Kind: event.KSyscall,
			Time: now,
			Aux:  int64(c.rob.pre[h].Imm),
			Args: [4]int64{c.intVal(isa.RegA0), c.intVal(isa.RegA1), c.intVal(isa.RegA2), c.intVal(isa.RegA3)},
		})
		return
	}
	if c.sysRetryAt >= 0 && now >= c.sysRetryAt {
		c.sysRetryAt = -1
		c.prog = true
		c.stats.Retries++
		c.sendPlain(event.Event{
			Kind: event.KSyscall,
			Time: now,
			Aux:  int64(c.rob.pre[h].Imm),
			Args: [4]int64{c.intVal(isa.RegA0), c.intVal(isa.RegA1), c.intVal(isa.RegA2), c.intVal(isa.RegA3)},
		})
	}
}

// stepAMO performs an atomic read-modify-write at the commit point for the
// ROB head at index h. The functional operation executes atomically against
// shared memory when the fixed latency expires; the timing approximates a
// round trip that bypasses the L1 (AMOs are rare in our workloads — the
// Table 1 primitives are syscalls).
func (c *OoO) stepAMO(h int, now int64) {
	if c.amoDoneAt < 0 {
		c.amoDoneAt = now + c.cfg.AMOLat
		c.prog = true
		return
	}
	if now < c.amoDoneAt {
		return
	}
	p := &c.rob.pre[h]
	addr := uint64(c.intVal(p.Rs1))
	rs2 := uint64(c.intVal(p.Rs2))
	var old uint64
	var ok bool
	switch p.Op {
	case isa.OpAMOADD:
		old, ok = c.env.Mem.AMOAdd(addr, rs2)
	case isa.OpAMOSWAP:
		old, ok = c.env.Mem.AMOSwap(addr, rs2)
	case isa.OpCAS:
		// The swap value is the committed (pre-rename) value of rd.
		swap := uint64(c.physIntVal[c.rob.old[h]])
		old, ok = c.env.Mem.CAS(addr, rs2, swap)
	}
	if !ok {
		c.stats.MemFaults++
	}
	c.writebackAt(h, int64(old))
	c.rob.flags[h] |= rfDone
	c.amoDoneAt = -1
}

func (c *OoO) writebackAt(h int, v int64) {
	if dst := c.rob.dst[h]; dst >= 0 && c.rob.flags[h]&rfDstFP == 0 {
		c.physIntVal[dst] = v
		c.physIntReady[dst] = true
		c.wake(&c.waitInt[dst])
	}
}

func (c *OoO) writeMem(op isa.Op, addr uint64, raw uint64) {
	var ok bool
	switch op {
	case isa.OpSD, isa.OpFSD:
		ok = c.env.Mem.StoreWord(addr, raw)
	case isa.OpSW:
		ok = c.env.Mem.Store32(addr, uint32(raw))
	case isa.OpSB:
		ok = c.env.Mem.Store8(addr, uint8(raw))
	}
	if !ok {
		c.stats.MemFaults++
	}
}

// -------------------------------------------------------------- deliver --

// Deliver implements Core: apply an InQ notification at local time now.
func (c *OoO) Deliver(ev event.Event, now int64) {
	switch ev.Kind {
	case event.KFill:
		c.deliverFill(ev, now)
	case event.KInv:
		c.l1d.Invalidate(ev.Addr)
		c.l1i.Invalidate(ev.Addr)
		c.pd.invalidate(ev.Addr)
	case event.KDowngrade:
		c.l1d.Downgrade(ev.Addr)
		c.l1i.Downgrade(ev.Addr)
	case event.KSyscallDone:
		if !c.sysIssued || c.sysDone {
			return // stale (core stopped or syscall squashed pre-issue)
		}
		if ev.Flag {
			c.sysRetryAt = now + 1
		} else {
			c.sysResult = ev.Aux
			c.sysDone = true
		}
	}
}

func (c *OoO) deliverFill(ev event.Event, now int64) {
	m := c.findMSHR(ev.Addr)
	if m == nil {
		return // stale fill after Stop
	}
	// A fetch may be waiting on this line even when the MSHR belongs to the
	// data side (fetch merged into an in-flight data miss): unblock it; the
	// I-cache will simply re-miss and request its own copy.
	if c.fetchMiss && c.fetchMissLn == ev.Addr {
		c.fetchMiss = false
	}
	switch {
	case m.instr:
		c.l1i.Fill(ev.Addr, cache.State(ev.Aux))
	case m.upgrade:
		c.l1d.UpgradeDone(ev.Addr)
	default:
		c.l1d.Fill(ev.Addr, cache.State(ev.Aux))
	}
	for lqi := m.loadHead; lqi >= 0; lqi = c.lq.next[lqi] {
		if c.lq.flags[lqi]&lfValid == 0 {
			continue
		}
		c.addPending(pendingOp{
			at: now, kind: pLoadDone, seq: c.lq.seq[lqi], robIdx: c.lq.rob[lqi], lqIdx: lqi,
		})
	}
	if m.store && c.sqCount > 0 {
		c.sq.flags[c.sqHead] &^= sfDrainWait
	}
	m.valid = false
	m.loadHead, m.loadTail = -1, -1
	m.store, m.upgrade, m.instr = false, false, false
	// An MSHR is free again: loads parked on MSHR exhaustion can retry.
	c.kickParkedLoads(now)
}

// ----------------------------------------------------------------- MSHR --

func (c *OoO) findMSHR(line uint64) *mshr {
	for i := range c.mshrs {
		if c.mshrs[i].valid && c.mshrs[i].line == line {
			return &c.mshrs[i]
		}
	}
	return nil
}

func (c *OoO) allocMSHR(line uint64) *mshr {
	for i := range c.mshrs {
		if !c.mshrs[i].valid {
			m := &c.mshrs[i]
			m.valid = true
			m.line = line
			m.loadHead, m.loadTail = -1, -1
			m.store, m.upgrade, m.instr = false, false, false
			return m
		}
	}
	return nil
}

// ----------------------------------------------------------------- send --

func (c *OoO) sendPlain(ev event.Event) {
	ev.Core = int32(c.env.ID)
	c.eventSeq++
	ev.Seq = c.eventSeq
	c.env.Send(ev)
}

func (c *OoO) send(ev event.Event, victimAddr uint64, victimDirty, victimValid bool) {
	if victimValid {
		ev.VictimAddr = victimAddr
		ev.VictimFlags = event.VictimValid
		if victimDirty {
			ev.VictimFlags |= event.VictimDirty
		}
	}
	c.sendPlain(ev)
}
