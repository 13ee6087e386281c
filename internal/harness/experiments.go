package harness

import (
	"fmt"
	"io"
	"time"

	"slacksim/internal/core"
	"slacksim/internal/stats"
	"slacksim/internal/workloads"
)

// table2Row is one benchmark's baseline measurement (paper Table 2).
type table2Row struct {
	Benchmark string
	InputSet  string
	KIPS      float64
	ROIInstrs int64
	ROICycles int64
	// AllocsPerK is the run's host heap allocations (runtime.MemStats
	// delta) per kinstr — the zero-allocation hot loop's regression
	// indicator alongside KIPS.
	AllocsPerK float64
}

// table2Data measures the paper's Table 2: each benchmark's input set and
// the instruction throughput (KIPS) of the cycle-by-cycle simulation with
// all simulation threads on one host core.
func (r *Runner) table2Data() ([]table2Row, error) {
	var rows []table2Row
	for _, name := range r.opts.Workloads {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		run, err := r.Baseline(name)
		if err != nil {
			return nil, err
		}
		res := run.Result
		rows = append(rows, table2Row{
			Benchmark:  name,
			InputSet:   w.InputDesc(r.opts.Scale),
			KIPS:       res.KIPS(),
			ROIInstrs:  res.Committed,
			ROICycles:  res.ROICycles(),
			AllocsPerK: res.AllocsPerKInstr(),
		})
	}
	return rows, nil
}

// printTable2 renders table2Data rows as text.
func printTable2(out io.Writer, rows []table2Row) {
	fmt.Fprintln(out, "Table 2: Benchmarks (baseline = cycle-by-cycle on 1 host core)")
	var t stats.Table
	t.AddRow("Benchmark", "Input Set", "KIPS", "ROI instrs", "ROI cycles", "allocs/kinstr")
	for _, row := range rows {
		t.AddRowf(row.Benchmark, row.InputSet, fmt.Sprintf("%.1f", row.KIPS), row.ROIInstrs, row.ROICycles,
			fmt.Sprintf("%.2f", row.AllocsPerK))
	}
	fmt.Fprint(out, t.String())
}

// Table2 measures and renders Table 2.
func (r *Runner) Table2(out io.Writer) error {
	rows, err := r.table2Data()
	if err != nil {
		return err
	}
	printTable2(out, rows)
	return nil
}

// Figure8Data holds the full speedup sweep.
type Figure8Data struct {
	Workloads []string
	Schemes   []core.Scheme
	HostCores []int
	// Speedup[workload][scheme][host] = baseline wall / run wall.
	Speedup map[string]map[string]map[int]float64
	// Baseline wall time per workload.
	BaselineWall map[string]time.Duration
}

// Figure8 runs the full sweep of the paper's Figure 8: every benchmark
// under every scheme at every host-core count, reporting speedup over the
// 1-host-core cycle-by-cycle baseline.
func (r *Runner) Figure8(out io.Writer) (*Figure8Data, error) {
	data := &Figure8Data{
		Workloads:    r.opts.Workloads,
		Schemes:      r.opts.Schemes,
		HostCores:    r.opts.HostCores,
		Speedup:      make(map[string]map[string]map[int]float64),
		BaselineWall: make(map[string]time.Duration),
	}
	for _, name := range r.opts.Workloads {
		base, err := r.Baseline(name)
		if err != nil {
			return nil, err
		}
		data.BaselineWall[name] = base.Result.Wall
		data.Speedup[name] = make(map[string]map[int]float64)
		for _, s := range r.opts.Schemes {
			data.Speedup[name][s.String()] = make(map[int]float64)
			for _, hc := range r.opts.HostCores {
				run, err := r.RunOne(name, s, hc)
				if err != nil {
					return nil, err
				}
				data.Speedup[name][s.String()][hc] =
					base.Result.Wall.Seconds() / run.Result.Wall.Seconds()
			}
		}
	}
	data.Print(out)
	return data, nil
}

// Print renders the Figure 8 panels: one speedup table per benchmark
// (8a-8d) and the harmonic-mean panel (8e), followed by the derived
// §4.2.1 scheme-ordering claims.
func (d *Figure8Data) Print(out io.Writer) {
	for _, name := range d.Workloads {
		fmt.Fprintf(out, "\nFigure 8: simulation speedup of %s vs CC on 1 host core\n", name)
		d.printPanel(out, func(scheme string, hc int) (float64, bool) {
			v, ok := d.Speedup[name][scheme][hc]
			return v, ok
		})
	}
	fmt.Fprintf(out, "\nFigure 8(e): harmonic mean of benchmark speedups\n")
	d.printPanel(out, func(scheme string, hc int) (float64, bool) {
		var xs []float64
		for _, name := range d.Workloads {
			if v, ok := d.Speedup[name][scheme][hc]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return 0, false
		}
		return stats.HarmonicMean(xs), true
	})
	d.printClaims(out)
}

func (d *Figure8Data) printPanel(out io.Writer, get func(scheme string, hc int) (float64, bool)) {
	var t stats.Table
	header := []string{"Scheme"}
	for _, hc := range d.HostCores {
		header = append(header, fmt.Sprintf("%d host cores", hc))
	}
	t.AddRow(header...)
	for _, s := range d.Schemes {
		row := []string{s.String()}
		for _, hc := range d.HostCores {
			if v, ok := get(s.String(), hc); ok {
				row = append(row, fmt.Sprintf("%.2f", v))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	fmt.Fprint(out, t.String())
}

// printClaims derives the paper's §4.2.1 qualitative observations from the
// measured data so a reader can check each one directly.
func (d *Figure8Data) printClaims(out io.Writer) {
	hc := d.HostCores[len(d.HostCores)-1]
	hm := func(scheme string) float64 {
		var xs []float64
		for _, name := range d.Workloads {
			if v, ok := d.Speedup[name][scheme][hc]; ok {
				xs = append(xs, v)
			}
		}
		return stats.HarmonicMean(xs)
	}
	have := func(scheme string) bool {
		for _, s := range d.Schemes {
			if s.String() == scheme {
				return true
			}
		}
		return false
	}
	fmt.Fprintf(out, "\nDerived claims (§4.2.1) at %d host cores:\n", hc)
	if have("S9") && have("Q10") {
		fmt.Fprintf(out, "  S9 vs Q10 speedup ratio: %.2fx (paper: ~1.2x)\n", hm("S9")/hm("Q10"))
	}
	if have("SU") && have("S100") {
		fmt.Fprintf(out, "  SU vs S100:              %.2fx (paper: SU best everywhere)\n", hm("SU")/hm("S100"))
	}
	if have("S100") && have("S9") {
		fmt.Fprintf(out, "  S100 vs S9:              %.2fx (paper: S100 outperforms S9)\n", hm("S100")/hm("S9"))
	}
	if have("L10") && have("Q10") {
		fmt.Fprintf(out, "  L10 vs Q10:              %.2fx (paper: L10 slightly higher)\n", hm("L10")/hm("Q10"))
	}
	if have("S9*") && have("S9") {
		fmt.Fprintf(out, "  S9* vs S9:               %.2fx (paper: almost the same)\n", hm("S9*")/hm("S9"))
	}
	if have("CC") {
		fmt.Fprintf(out, "  CC at %d host cores:      %.2fx (paper: poor, up to 2.6)\n", hc, hm("CC"))
	}
}

// Figure9Data holds the host-core scaling sweep (paper Figures 9-10):
// absolute simulation speed in KIPS per scheme and host-core count, and
// the scale-up of each scheme relative to its own 1-host-core (or
// smallest-swept) point. Figure 8 answers "how much faster than the
// baseline"; Figure 9 answers "does adding host cores help".
type Figure9Data struct {
	Workloads []string
	Schemes   []core.Scheme
	HostCores []int
	// KIPS[workload][scheme][host] = simulation speed of that run.
	KIPS map[string]map[string]map[int]float64
	// HMeanKIPS[scheme][host] = harmonic mean across workloads.
	HMeanKIPS map[string]map[int]float64
	// ScaleUp[scheme][host] = HMeanKIPS[scheme][host] /
	// HMeanKIPS[scheme][smallest swept host-core count].
	ScaleUp map[string]map[int]float64
}

// Figure9 runs the host-core scaling sweep: every benchmark under every
// scheme at every host-core count, recording absolute KIPS and each
// scheme's scale-up over its own smallest-host-core point.
func (r *Runner) Figure9(out io.Writer) (*Figure9Data, error) {
	d := &Figure9Data{
		Workloads: r.opts.Workloads,
		Schemes:   r.opts.Schemes,
		HostCores: r.opts.HostCores,
		KIPS:      make(map[string]map[string]map[int]float64),
		HMeanKIPS: make(map[string]map[int]float64),
		ScaleUp:   make(map[string]map[int]float64),
	}
	for _, name := range r.opts.Workloads {
		d.KIPS[name] = make(map[string]map[int]float64)
		for _, s := range r.opts.Schemes {
			d.KIPS[name][s.String()] = make(map[int]float64)
			for _, hc := range r.opts.HostCores {
				run, err := r.RunOne(name, s, hc)
				if err != nil {
					return nil, err
				}
				d.KIPS[name][s.String()][hc] = run.Result.KIPS()
			}
		}
	}
	for _, s := range r.opts.Schemes {
		d.HMeanKIPS[s.String()] = make(map[int]float64)
		d.ScaleUp[s.String()] = make(map[int]float64)
		for _, hc := range r.opts.HostCores {
			var xs []float64
			for _, name := range r.opts.Workloads {
				if v, ok := d.KIPS[name][s.String()][hc]; ok && v > 0 {
					xs = append(xs, v)
				}
			}
			if len(xs) > 0 {
				d.HMeanKIPS[s.String()][hc] = stats.HarmonicMean(xs)
			}
		}
		base := d.HMeanKIPS[s.String()][r.opts.HostCores[0]]
		if base > 0 {
			for _, hc := range r.opts.HostCores {
				d.ScaleUp[s.String()][hc] = d.HMeanKIPS[s.String()][hc] / base
			}
		}
	}
	d.Print(out)
	return d, nil
}

// Print renders the Figure 9/10 tables: harmonic-mean KIPS and per-scheme
// scale-up by host-core count, then per-benchmark KIPS panels.
func (d *Figure9Data) Print(out io.Writer) {
	fmt.Fprintf(out, "\nFigure 9: simulation speed (harmonic-mean KIPS) by host cores\n")
	d.printPanel(out, "%.1f", func(scheme string, hc int) (float64, bool) {
		v, ok := d.HMeanKIPS[scheme][hc]
		return v, ok
	})
	fmt.Fprintf(out, "\nFigure 10: scale-up over each scheme's %d-host-core point\n", d.HostCores[0])
	d.printPanel(out, "%.2f", func(scheme string, hc int) (float64, bool) {
		v, ok := d.ScaleUp[scheme][hc]
		return v, ok
	})
	for _, name := range d.Workloads {
		fmt.Fprintf(out, "\nFigure 9 (%s): simulation speed in KIPS\n", name)
		d.printPanel(out, "%.1f", func(scheme string, hc int) (float64, bool) {
			v, ok := d.KIPS[name][scheme][hc]
			return v, ok
		})
	}
}

func (d *Figure9Data) printPanel(out io.Writer, format string, get func(scheme string, hc int) (float64, bool)) {
	var t stats.Table
	header := []string{"Scheme"}
	for _, hc := range d.HostCores {
		header = append(header, fmt.Sprintf("%d host cores", hc))
	}
	t.AddRow(header...)
	for _, s := range d.Schemes {
		row := []string{s.String()}
		for _, hc := range d.HostCores {
			if v, ok := get(s.String(), hc); ok {
				row = append(row, fmt.Sprintf(format, v))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	fmt.Fprint(out, t.String())
}

// table3Row is one benchmark's slack-error measurements (paper Table 3):
// the relative execution-time error of each optimistic scheme versus the
// deterministic serial reference, as a fraction (0.01 = 1%).
type table3Row struct {
	Benchmark string
	Err       map[string]float64
}

// table3Schemes are the optimistic schemes Table 3 compares.
var table3Schemes = []core.Scheme{core.SchemeS9, core.SchemeS100, core.SchemeSU}

// table3Data measures the paper's Table 3: relative error in the simulated
// execution time of the optimistic schemes (S9, S100, SU) at the largest
// host-core count, versus the deterministic cycle-by-cycle reference.
func (r *Runner) table3Data() ([]table3Row, error) {
	hc := r.opts.HostCores[len(r.opts.HostCores)-1]
	var rows []table3Row
	for _, name := range r.opts.Workloads {
		ref, err := r.SerialReference(name)
		if err != nil {
			return nil, err
		}
		row := table3Row{Benchmark: name, Err: make(map[string]float64)}
		for _, s := range table3Schemes {
			run, err := r.RunOne(name, s, hc)
			if err != nil {
				return nil, err
			}
			row.Err[s.String()] = stats.RelErr(float64(run.Result.ROICycles()), float64(ref.Result.ROICycles()))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// printTable3 renders table3Data rows as text. hostCores is the host-core
// count the rows were measured at.
func printTable3(out io.Writer, rows []table3Row, hostCores int) {
	fmt.Fprintf(out, "Table 3: relative error in execution time due to slack (%d host cores)\n", hostCores)
	var t stats.Table
	t.AddRow("Benchmark", "S9", "S100", "SU")
	for _, row := range rows {
		cells := []string{row.Benchmark}
		for _, s := range table3Schemes {
			cells = append(cells, fmt.Sprintf("%.2f%%", row.Err[s.String()]*100))
		}
		t.AddRow(cells...)
	}
	fmt.Fprint(out, t.String())
}

// Table3 measures and renders Table 3.
func (r *Runner) Table3(out io.Writer) error {
	rows, err := r.table3Data()
	if err != nil {
		return err
	}
	printTable3(out, rows, r.opts.HostCores[len(r.opts.HostCores)-1])
	return nil
}
