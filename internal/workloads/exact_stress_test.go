package workloads

import (
	"strings"
	"testing"

	"slacksim/internal/core"
)

// TestExactnessStress hammers the conservative schemes on fft against the
// serial reference, with the invariant auditor on — a late delivery or a
// request queued behind a visibility pass fails the run outright; on
// divergence it prints the first differing kernel trace lines.
func TestExactnessStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	w, _ := Get("fft")
	trace := func(scheme core.Scheme, serial bool) (int64, []string) {
		m := machineFor(t, w, 4, 1, func(c *core.Config) { c.Audit = true })
		var sb strings.Builder
		m.Kernel().Trace = func(s string) { sb.WriteString(s); sb.WriteByte('\n') }
		var r *core.Result
		var err error
		if serial {
			r = runSerial(t, m)
		} else {
			r, err = m.RunParallel(scheme)
			if err != nil {
				t.Fatal(err)
			}
		}
		return r.EndTime, strings.Split(sb.String(), "\n")
	}
	refEnd, refTrace := trace(core.Scheme{}, true)
	for i := 0; i < 12; i++ {
		for _, s := range []core.Scheme{core.SchemeL10, core.SchemeS9x} {
			end, tr := trace(s, false)
			if end == refEnd {
				continue
			}
			t.Errorf("iter %d %v: end %d != %d", i, s, end, refEnd)
			for j := 0; j < len(tr) && j < len(refTrace); j++ {
				if tr[j] != refTrace[j] {
					for k := j - 2; k < j+4 && k < len(tr) && k < len(refTrace); k++ {
						if k < 0 {
							continue
						}
						mark := "  "
						if tr[k] != refTrace[k] {
							mark = "!!"
						}
						t.Logf("%s serial: %-42s par: %s", mark, refTrace[k], tr[k])
					}
					break
				}
			}
			return
		}
	}
}
