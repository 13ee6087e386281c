package cpu

import (
	"fmt"
	"strings"
	"testing"

	"slacksim/internal/cache"
)

// TestOoOCycleExact pins the out-of-order model's timing on the package's
// microprograms: the cycle the program exits at and every counter in
// Stats must equal the recorded values. Issue order, wakeup latency, FU
// arbitration and recovery all show up here within milliseconds, long
// before a machine-level determinism suite or a benchmark fingerprint
// would notice. A deliberate timing change re-records the table from the
// failure messages.
func TestOoOCycleExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		end  int64
		want Stats
	}{
		{"alu", aluProg, 71, Stats{Cycles: 71, Skipped: 45, Committed: 13, Fetched: 16, Stores: 1, Syscalls: 1, FetchStall: 4, HeadStall: 22, SerializeOn: 32, L1D: cache.L1Stats{Hits: 1, Misses: 1}, L1I: cache.L1Stats{Hits: 4, Misses: 2}, OpsWB: 12}},
		{"fp", fpProg, 53, Stats{Cycles: 53, Skipped: 28, Committed: 12, Fetched: 16, Loads: 2, Stores: 2, Syscalls: 1, FetchStall: 4, HeadStall: 20, SerializeOn: 30, L1D: cache.L1Stats{Hits: 2, Misses: 1}, L1I: cache.L1Stats{Hits: 4, Misses: 2}, OpsLoadIssue: 2, OpsLoadDone: 2, OpsWB: 8}},
		{"branch", branchProg, 636, Stats{Cycles: 636, Skipped: 16, Committed: 456, Fetched: 1161, Squashed: 551, Stores: 1, Branches: 401, Mispred: 102, Syscalls: 1, FetchStall: 7, HeadStall: 412, SerializeOn: 8, L1D: cache.L1Stats{Hits: 1, Misses: 1}, L1I: cache.L1Stats{Hits: 502, Misses: 2}, OpsWB: 408}},
		{"branchStorm", branchStormProg, 4649, Stats{Cycles: 4649, Skipped: 16, Committed: 3206, Fetched: 9355, Squashed: 4358, Stores: 3, Branches: 3583, Mispred: 770, Syscalls: 1, FetchStall: 11, HeadStall: 3085, SerializeOn: 9, L1D: cache.L1Stats{Hits: 1, Misses: 1}, L1I: cache.L1Stats{Hits: 4608, Misses: 3}, OpsWB: 3080}},
		{"callDepth", callDepthProg, 215, Stats{Cycles: 215, Skipped: 38, Committed: 360, Fetched: 389, Squashed: 8, Loads: 66, Stores: 65, Branches: 101, Mispred: 2, Syscalls: 1, FetchStall: 10, LSQStall: 34, HeadStall: 121, SerializeOn: 9, L1D: cache.L1Stats{Hits: 115, Misses: 10}, L1I: cache.L1Stats{Hits: 178, Misses: 3}, OpsLoadIssue: 66, OpsLoadDone: 64, OpsWB: 134}},
		{"memBurst", memBurstProg, 733, Stats{Cycles: 733, Skipped: 241, Committed: 712, Fetched: 741, Squashed: 8, Loads: 65, Stores: 65, Branches: 129, Mispred: 4, Syscalls: 1, FetchStall: 5, LSQStall: 213, HeadStall: 287, SerializeOn: 41, L1D: cache.L1Stats{Hits: 115, Misses: 65}, L1I: cache.L1Stats{Hits: 267, Misses: 3}, OpsLoadIssue: 64, OpsLoadDone: 64, OpsWB: 457}},
		{"subWord", widthProg, 35, Stats{Cycles: 35, Skipped: 11, Committed: 15, Fetched: 16, Loads: 4, Stores: 6, Syscalls: 1, FetchStall: 7, HeadStall: 19, SerializeOn: 11, L1D: cache.L1Stats{Hits: 9, Misses: 1}, L1I: cache.L1Stats{Hits: 4, Misses: 2}, OpsLoadIssue: 11, OpsLoadDone: 4, OpsWB: 5, Kicks: 7}},
		{"forward", forwardProg, 28, Stats{Cycles: 28, Skipped: 13, Committed: 7, Fetched: 8, Loads: 1, Stores: 2, Syscalls: 1, FetchStall: 1, HeadStall: 11, SerializeOn: 11, L1D: cache.L1Stats{Hits: 2, Misses: 1}, L1I: cache.L1Stats{Hits: 2, Misses: 1}, OpsLoadIssue: 1, OpsLoadDone: 1, OpsWB: 4}},
		{"amo", amoProg, 99, Stats{Cycles: 99, Skipped: 63, Committed: 14, Fetched: 29, Stores: 3, Syscalls: 1, FetchStall: 10, HeadStall: 29, SerializeOn: 41, L1D: cache.L1Stats{Hits: 3, Misses: 1}, L1I: cache.L1Stats{Hits: 9, Misses: 4}, OpsWB: 8}},
		{"missBound", missBoundProg(200), 4032, Stats{Cycles: 4032, Skipped: 1813, Committed: 2407, Fetched: 2427, Squashed: 3, Loads: 200, Stores: 1, Branches: 200, Mispred: 2, Syscalls: 1, FetchStall: 6, ROBStall: 970, HeadStall: 2013, SerializeOn: 49, L1D: cache.L1Stats{Hits: 1, Misses: 201, Evictions: 1}, L1I: cache.L1Stats{Hits: 1383, Misses: 3}, OpsLoadIssue: 200, OpsLoadDone: 200, OpsWB: 2006}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBench(t, tc.src, false)
			b.run(1 << 20)
			if got := *b.core.Stats(); b.now != tc.end || got != tc.want {
				lit := strings.ReplaceAll(fmt.Sprintf("%#v", got), "cpu.", "")
				t.Errorf("end %d stats\n%s\nwant end %d stats\n%#v", b.now, lit, tc.end, tc.want)
			}
		})
	}
}
