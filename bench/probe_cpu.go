package main

import (
	"fmt"
	"math"
	"time"

	"slacksim/internal/asm"
	"slacksim/internal/cache"
	"slacksim/internal/cpu"
	"slacksim/internal/event"
	"slacksim/internal/loader"
	"slacksim/internal/stats"
	"slacksim/internal/sysemu"
	"slacksim/internal/workloads"
)

// probeCPU times one out-of-order core ticking the workload's own kernel as
// a single thread against a stub Env that answers every miss after the
// target's unloaded L2 latency. It returns host ns per ticked cycle; cycles
// the stub fast-forwards are not ticked and not counted.
func probeCPU(program string, scale, ticks int) (float64, error) {
	w, err := workloads.Get(program)
	if err != nil {
		return 0, err
	}
	prog, err := asm.Assemble(w.Source(scale), asm.Options{})
	if err != nil {
		return 0, err
	}
	ccfg := cache.DefaultConfig(1)
	lat := ccfg.CriticalLatency()
	var (
		c           cpu.Core
		kernel      *sysemu.Kernel
		sent, inbox []event.Event
		now         int64
		exited      bool
	)
	// boot loads a fresh image and core.
	boot := func() error {
		img, err := loader.Load(prog, loader.Config{NumCores: 1})
		if err != nil {
			return err
		}
		if err := w.Init(img, scale); err != nil {
			return err
		}
		kernel = sysemu.NewKernel(sysemu.KernelImage(img), 1, 1)
		kernel.Notify = func(_ int, t, ret int64) {
			inbox = append(inbox, event.Event{Kind: event.KSyscallDone, Time: t + lat, Aux: ret})
		}
		c, err = cpu.NewOoO(cpu.DefaultConfig(), cpu.Env{
			Mem:      img.Mem,
			CacheCfg: ccfg,
			Send:     func(ev event.Event) { sent = append(sent, ev) },
			TextBase: prog.TextBase,
			TextEnd:  prog.TextEnd(),
		})
		if err != nil {
			return err
		}
		c.Start(img.Entry, img.StackTop(0), 0)
		sent, inbox, now, exited = sent[:0], inbox[:0], 0, false
		return nil
	}
	exited = true // nothing is booted yet

	step := func() error {
		kept := inbox[:0]
		for _, ev := range inbox {
			if ev.Time <= now {
				c.Deliver(ev, now)
			} else {
				kept = append(kept, ev)
			}
		}
		inbox = kept
		progressed := c.Tick(now)
		now++
		for _, ev := range sent {
			switch ev.Kind {
			case event.KFetch, event.KReadShared:
				inbox = append(inbox, event.Event{Kind: event.KFill, Time: ev.Time + lat, Addr: ev.Addr, Aux: int64(cache.Exclusive)})
			case event.KReadExcl, event.KUpgrade:
				inbox = append(inbox, event.Event{Kind: event.KFill, Time: ev.Time + lat, Addr: ev.Addr, Aux: int64(cache.Modified)})
			case event.KSyscall:
				res := kernel.Syscall(0, ev.Time, ev.Aux, ev.Args)
				for _, eff := range res.Effects {
					if eff.Kind == sysemu.EffectEndSim {
						exited = true
					}
				}
				if !res.Block {
					inbox = append(inbox, event.Event{Kind: event.KSyscallDone, Time: ev.Time + lat, Aux: res.Ret, Flag: res.Retry})
				}
			}
		}
		sent = sent[:0]
		if progressed || exited {
			return nil
		}
		// Fast-forward an idle core to its next work, as the engine does.
		next := c.NextWork(now)
		for _, ev := range inbox {
			next = min(next, ev.Time)
		}
		if next == math.MaxInt64 {
			return fmt.Errorf("probe cpu: %s stalled with nothing pending at cycle %d", program, now)
		}
		if next > now {
			c.Skip(next - now)
			now = next
		}
		return nil
	}
	// As sliceNS does, report the median of timed slices; booting again
	// after the kernel has ended is not ticking and stays outside the timing.
	var per []float64
	for s := 0; s < probeSlices; s++ {
		n := max(ticks/probeSlices, 1)
		var busy time.Duration
		for done := 0; done < n; {
			if exited {
				if err := boot(); err != nil {
					return 0, err
				}
			}
			start := time.Now()
			for ; done < n && !exited; done++ {
				if err := step(); err != nil {
					return 0, err
				}
			}
			busy += time.Since(start)
		}
		per = append(per, float64(busy.Nanoseconds())/float64(n))
	}
	return stats.Median(per), nil
}
