package harness

import (
	"strings"
	"testing"

	"slacksim/internal/core"
)

func TestRemoteSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep")
	}
	r, err := NewRunner(Options{
		Workloads:   []string{"ocean"},
		Schemes:     []core.Scheme{core.SchemeCC, core.SchemeS9x},
		TargetCores: 4,
		Verify:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	d, err := r.RemoteSweep(&out, 2, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"CC", "S9*"} {
		for _, nw := range []int{1, 2} {
			if d.KIPS["ocean"][s][nw] <= 0 {
				t.Errorf("%s w%d: no KIPS", s, nw)
			}
			w := d.Wire["ocean"][s][nw]
			if w == nil || w.Parent.BatchesSent == 0 || w.Workers.BytesSent == 0 {
				t.Errorf("%s w%d: wire stats missing or empty: %+v", s, nw, w)
			}
		}
		if d.HMeanKIPS[s][1] <= 0 {
			t.Errorf("%s: no harmonic mean", s)
		}
	}
	if !strings.Contains(out.String(), "Remote backend") || !strings.Contains(out.String(), "Wire traffic") {
		t.Errorf("sweep output missing sections:\n%s", out.String())
	}
}
