package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The benchmark runs every simulation in a child process of its own binary;
// under go test that binary is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestSmoke runs every workload at scale 1 for one rep with short probes and
// checks that what BENCHMARK.json names is what the benchmark emits.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	if code := run([]string{"-smoke", "-seed", "7", "-out", dir}); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
	set, err := readResultSet(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}

	// BENCHMARK.json repeats the benchmark's own tables.
	if len(bm.Workloads) != len(specs) || len(bm.EndToEnd) != len(endToEnd) || len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the benchmark has %d, %d and %d",
			len(bm.Workloads), len(bm.EndToEnd), len(bm.PerLayer), len(specs), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range bm.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, specs[i].Name)
		}
	}
	for i, m := range bm.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the benchmark", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract's naming or bound rules", m)
		}
	}
	for i, m := range bm.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the benchmark", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %+v breaks the contract's naming rules", m)
		}
	}

	// Every workload emits every metric, with its unit.
	if len(set.Workloads) != len(specs) {
		t.Fatalf("smoke run has %d workloads, want %d", len(set.Workloads), len(specs))
	}
	for i, wr := range set.Workloads {
		if wr.Name != specs[i].Name {
			t.Errorf("workload %d is %q, want %q", i, wr.Name, specs[i].Name)
		}
		if wr.Failed != 0 || wr.Attempted != 2 {
			t.Errorf("%s: %d of %d ops failed, want 0 of 2: %v", wr.Name, wr.Failed, wr.Attempted, wr.Failures)
		}
		for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
			line := wr.driverLine(traced)
			metrics := line["metrics"].(map[string]value)
			if len(metrics) != len(defs) {
				t.Errorf("%s: trace=%v emits %d metrics, want %d", wr.Name, traced, len(metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := metrics[d.Name]; !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s emitted as %+v (present %v), want a number in %s", wr.Name, d.Name, v, ok, d.Unit)
				}
			}
		}
		for _, d := range endToEnd {
			if v := wr.EndToEnd[d.Name].Median; v <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want above 0", wr.Name, d.Name, v)
			}
		}

		// The ledger's rows and its remainder account for all host CPU time.
		sum := wr.PerLayer["ledger.unattributed_ns_per_instr"].Value
		for _, row := range ledgerRows {
			sum += wr.PerLayer["ledger."+row+"_ns_per_instr"].Value
		}
		total := wr.PerLayer["ledger.host_cpu_ns_per_instr"].Value
		if want := wr.EndToEnd["host_cpu_ns_per_instr"].Median; total != want {
			t.Errorf("%s: ledger total %v, want host_cpu_ns_per_instr %v", wr.Name, total, want)
		}
		if math.Abs(sum-total) > 1e-9*total {
			t.Errorf("%s: ledger rows sum to %v, want %v", wr.Name, sum, total)
		}

		// A wrong oracle value turns a good rep into a failed op.
		planted := workloadResult{Oracle: wr.Oracle, Reps: []rep{wr.Reps[0]}}
		planted.Oracle.Sim.ROICycles = wr.Oracle.Sim.ROICycles * 9 / 10
		planted.Reps[0].Failure = ""
		judge(specs[i], planted.Oracle.Sim, &planted.Reps[0])
		finish(specs[i], &planted, nil)
		if planted.Failed != 1 || planted.Attempted != 1 {
			t.Errorf("%s: planted oracle error gave %d of %d ops failed, want 1 of 1", wr.Name, planted.Failed, planted.Attempted)
		}
	}

	// The spans cover every boundary of every workload.
	raw, err = os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, s := range spans {
		if s.EndNS < s.StartNS || s.Parent >= s.ID {
			t.Errorf("span %+v ends before it starts or precedes its parent", s)
		}
		seen[s.Workload+" "+s.Name] = true
	}
	for _, s := range specs {
		for _, n := range []string{"rep", "oracle_rep", "setup", "assemble", "new_machine", "init", "run", "oracle", "verify", "probe.cpu"} {
			if !seen[s.Name+" "+n] {
				t.Errorf("no %q span for %s", n, s.Name)
			}
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 8, 4, 10, 6}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 14], n=4) == [10.0, 11.0, 14.0]
	if got, want := spread([]float64{11, 14, 10}), 4.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestAgreeVerdicts(t *testing.T) {
	set := func(kips []float64) *resultSet {
		wr := &workloadResult{Name: "w", EndToEnd: map[string]summary{}}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = summarise(d.Unit, []float64{100, 100, 100})
		}
		wr.EndToEnd["sim_kips"] = summarise("kinstr/s", kips)
		return &resultSet{Workloads: []*workloadResult{wr}}
	}
	base := set([]float64{99, 100, 101, 100, 100})
	for _, tc := range []struct {
		other   []float64
		verdict string
		same    bool
	}{
		{[]float64{104, 105, 106, 105, 105}, "agree", true},
		{[]float64{139, 140, 141, 140, 140}, "differs", false},
		{[]float64{60, 100, 180, 100, 140}, "unresolved", true},
	} {
		var out bytes.Buffer
		same := agree(&out, base, set(tc.other))
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "sim_kips") {
				row = line
			}
		}
		if same != tc.same || !strings.HasSuffix(row, tc.verdict) {
			t.Errorf("sim_kips %v against the base: same=%v, row %q; want same=%v and %q", tc.other, same, row, tc.same, tc.verdict)
		}
	}
}
