package workloads

import "testing"

// TestAllWorkloadsSerial runs every registered workload on the serial
// reference engine and verifies its results.
func TestAllWorkloadsSerial(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name+"/ooo", func(t *testing.T) {
			res := runWorkload(t, w.Name, 4, 1)
			t.Logf("%s: %d cycles, %d ROI instrs", w.Name, res.EndTime, res.Committed)
		})
	}
}

// TestWorkloadsSingleThread checks each workload degenerates correctly to
// one thread.
func TestWorkloadsSingleThread(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			runWorkload(t, w.Name, 1, 1)
		})
	}
}
