package cpu

import (
	"fmt"
	"math/bits"
	"strings"
)

// DebugState renders a one-look summary of the core's in-flight state; used
// by engine diagnostics when a simulation aborts.
func (c *OoO) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core %d active=%v fetchPC=%#x fetchMiss=%v(line %#x) fetchQ=%d rob=%d iq=%d lq=%d sq=%d serialize=%d sysIssued=%v sysDone=%v retryAt=%d pending=%d\n",
		c.env.ID, c.active, c.fetchPC, c.fetchMiss, c.fetchMissLn, c.fetchQLen(),
		c.robCount, bits.OnesCount64(c.queuedSlots), c.lqCount, c.sqCount, c.serializeSeq, c.sysIssued, c.sysDone, c.sysRetryAt, len(c.pending))
	if c.robCount > 0 {
		h := c.robHead
		fl := c.rob.flags[h]
		fmt.Fprintf(&b, "  head: seq=%d pc=%#x %s done=%v sys=%v amo=%v\n",
			c.rob.seq[h], c.rob.pc[h], c.rob.pre[h].Inst().Disassemble(c.rob.pc[h]),
			fl&rfDone != 0, fl&rfSys != 0, fl&rfAMO != 0)
	}
	for i := range c.mshrs {
		if c.mshrs[i].valid {
			m := &c.mshrs[i]
			waiters := 0
			for lqi := m.loadHead; lqi >= 0; lqi = c.lq.next[lqi] {
				waiters++
			}
			fmt.Fprintf(&b, "  mshr: line=%#x instr=%v upgrade=%v store=%v loads=%d\n", m.line, m.instr, m.upgrade, m.store, waiters)
		}
	}
	for i := range c.pending {
		p := &c.pending[i]
		fmt.Fprintf(&b, "  pending: at=%d kind=%d seq=%d\n", p.at, p.kind, p.seq)
	}
	return b.String()
}

// DebugState for the in-order core.
func (c *InOrder) DebugState() string {
	return fmt.Sprintf("core %d active=%v pc=%#x state=%d busyUntil=%d retryAt=%d cur=%s\n",
		c.env.ID, c.active, c.pc, c.state, c.busyUntil, c.retryAt, c.cur.Inst().Disassemble(c.pc))
}
