package cpu

import (
	"fmt"
	"math/bits"
)

// checkIQ verifies the event-driven issue queue against a from-scratch
// recomputation: the queue fits IQSize, readySlots is a subset of
// queuedSlots, every queued slot holds the live ROB entry it was dispatched
// for, a slot is ready exactly when every captured operand is ready in the
// physical register files, and an unready slot is on the waiter mask of
// each operand it still needs. A writeback that forgets to wake its waiters
// breaks the last two.
func checkIQ(c *OoO) error {
	if n := bits.OnesCount64(c.queuedSlots); n > c.cfg.IQSize {
		return fmt.Errorf("%d queued slots, IQSize %d", n, c.cfg.IQSize)
	}
	if extra := c.readySlots &^ c.queuedSlots; extra != 0 {
		return fmt.Errorf("ready slots %#x not queued", extra)
	}
	for m := c.queuedSlots; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		e := &c.iqSlot[s]
		if c.rob.flags[s]&rfValid == 0 || c.rob.seq[s] != e.seq || int(e.robIdx) != s {
			return fmt.Errorf("slot %d: queued seq %d rob %d, ROB holds seq %d flags %#x", s, e.seq, e.robIdx, c.rob.seq[s], c.rob.flags[s])
		}
		bit := uint64(1) << s
		ready := true
		for _, op := range [...]struct {
			p    int16
			rdy  []bool
			wait []uint64
		}{{e.ps1, c.physIntReady, c.waitInt}, {e.ps2, c.physIntReady, c.waitInt}, {e.pf1, c.physFPReady, c.waitFP}, {e.pf2, c.physFPReady, c.waitFP}} {
			if op.p < 0 || op.rdy[op.p] {
				continue
			}
			ready = false
			if op.wait[op.p]&bit == 0 {
				return fmt.Errorf("slot %d (seq %d) waits on register %d but is not on its waiter mask", s, e.seq, op.p)
			}
		}
		if ready != (c.readySlots&bit != 0) {
			return fmt.Errorf("slot %d (seq %d): operands ready %v, ready bit %v", s, e.seq, ready, !ready)
		}
	}
	return nil
}
