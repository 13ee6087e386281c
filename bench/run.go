package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"slacksim/internal/stats"
)

// recordedJSON holds the fingerprints of the conservative workloads as they
// were when the benchmark was defined. A run that no longer matches them has
// changed a simulated number; that is reported (sim.fingerprint_match), and
// it is not a failure: the live serial oracle decides correctness.
//
//go:embed fingerprints.json
var recordedJSON []byte

func recordedFingerprints() (map[string]fingerprint, error) {
	var m map[string]fingerprint
	if err := json.Unmarshal(recordedJSON, &m); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return m, nil
}

// workloadResult is everything one workload produced.
type workloadResult struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Refused is set, and nothing else is, when the host has fewer CPUs than
	// the workload's host-core count.
	Refused string `json:"refused,omitempty"`

	Oracle rep   `json:"oracle"`
	Reps   []rep `json:"reps"`             // timed, tracing off
	Traced []rep `json:"traced,omitempty"` // EnableMetrics + EnableTrace

	Attempted int      `json:"attempted_ops"`
	Failed    int      `json:"failed_ops"`
	Failures  []string `json:"failures,omitempty"`

	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]value   `json:"per_layer,omitempty"`

	// Fingerprint is the simulated statistics every rep of a conservative
	// workload agreed on; Recorded says whether they match fingerprints.json.
	Fingerprint *fingerprint `json:"sim.fingerprint,omitempty"`
	Recorded    string       `json:"sim.fingerprint_recorded,omitempty"` // match, differs or none
}

// resultSet is the file a full run writes.
type resultSet struct {
	Schema    string            `json:"schema"`
	Header    header            `json:"header"`
	Notes     []string          `json:"notes"`
	Workloads []*workloadResult `json:"workloads"`
}

var notes = []string{
	"internal/workloads inputs are keyed by scale only: the seed varies the run order and the probe streams, not the target inputs.",
	"The target model is not validated against hardware: the serial engine is the only reference, and sim_accuracy_ppm is agreement with it.",
	"Timings are host time and quoted as median [min, max] over n reps; simulated quantities say so.",
}

// runner executes children and probes, keeping their spans.
type runner struct {
	sl    spanLog
	seed  int64
	smoke bool
	log   io.Writer // progress
}

func (b *runner) probeDiv() int {
	if b.smoke {
		return 100
	}
	return 1
}

// oracleMaxCycles bounds the serial oracle: five times the longest workload,
// so a livelocked target is an aborted run in seconds, never a hang.
const oracleMaxCycles = 20_000_000

func (b *runner) request(s spec) childReq {
	return childReq{Workload: s.Name, Program: s.Program, Scale: s.Scale, Scheme: s.Scheme.String(), Driver: s.Driver}
}

// oracle runs the serial engine on the workload's machine.
func (b *runner) oracle(s spec) rep {
	req := b.request(s)
	req.Oracle = true
	req.MaxCycles = oracleMaxCycles
	r := runChild(&b.sl, req, 1)
	r.Failure = runFailure(r)
	fmt.Fprintf(b.log, "  %-22s oracle   %7.3fs  %d ROI cycles %s\n", s.Name, r.WallS, r.Sim.ROICycles, r.Failure)
	return r
}

// rep runs the workload once. MaxCycles is twice the oracle's end time, so a
// livelock is a counted failure.
func (b *runner) rep(s spec, oracle rep, traced bool) rep {
	req := b.request(s)
	req.Traced = traced
	req.MaxCycles = 2 * oracle.Sim.EndTime
	r := runChild(&b.sl, req, s.HostCores)
	judge(s, oracle.Sim, &r)
	kind := "rep"
	if traced {
		kind = "traced"
	}
	noisy := ""
	if r.Noisy {
		noisy = " noisy"
	}
	fmt.Fprintf(b.log, "  %-22s %-8s %7.3fs  %8.1f KIPS%s %s\n", s.Name, kind, r.WallS, kips(r), noisy, r.Failure)
	return r
}

// errPPM is the simulated-time error against the oracle.
func errPPM(got, oracle fingerprint) float64 {
	return ratio(math.Abs(float64(got.ROICycles-oracle.ROICycles)), float64(oracle.ROICycles)) * 1e6
}

// diffSim names the first simulated statistic in which got departs from
// want. RunSerial leaves Result.L2Stats empty on a sharded geometry, so an
// all-zero want.L2 is not compared.
func diffSim(got, want fingerprint) string {
	switch {
	case got.EndTime != want.EndTime:
		return fmt.Sprintf("end time %d, want %d", got.EndTime, want.EndTime)
	case got.ROICycles != want.ROICycles:
		return fmt.Sprintf("ROI cycles %d, want %d", got.ROICycles, want.ROICycles)
	case got.ExitCode != want.ExitCode:
		return fmt.Sprintf("exit code %d, want %d", got.ExitCode, want.ExitCode)
	case got.OutputHash != want.OutputHash:
		return "output differs"
	case want.L2 != (fingerprint{}).L2 && got.L2 != want.L2:
		return fmt.Sprintf("L2 stats %+v, want %+v", got.L2, want.L2)
	}
	return ""
}

// runFailure says why a child's simulation does not count: the child died,
// the engine returned an error or aborted at MaxCycles, or Verify rejected
// the functional result.
func runFailure(r rep) string {
	switch {
	case r.Failure != "":
		return r.Failure
	case r.Err != "":
		return "engine: " + r.Err
	case r.Aborted:
		return fmt.Sprintf("aborted at MaxCycles after %d cycles", r.Sim.EndTime)
	case r.VerifyErr != "":
		return "verify: " + r.VerifyErr
	}
	return ""
}

// judge marks r failed when its simulation does not count or its simulated
// time breaks the workload's bound against the oracle.
func judge(s spec, oracle fingerprint, r *rep) {
	switch r.Failure = runFailure(*r); {
	case r.Failure != "":
	case s.ErrBoundPPM == 0 && (r.TimeWarps != 0 || r.CoherenceWarps != 0):
		r.Failure = fmt.Sprintf("%d time warps and %d coherence warps under a conservative scheme", r.TimeWarps, r.CoherenceWarps)
	case s.ErrBoundPPM == 0:
		if d := diffSim(r.Sim, oracle); d != "" {
			r.Failure = "not bit-exact against the serial oracle: " + d
		}
	case errPPM(r.Sim, oracle) > s.ErrBoundPPM:
		r.Failure = fmt.Sprintf("simulated-time error %.0f ppm exceeds %.0f ppm", errPPM(r.Sim, oracle), s.ErrBoundPPM)
	}
}

// finish applies the checks that need all reps, counts the failed ones, and
// summarises the end-to-end metrics over the good timed reps.
func finish(s spec, wr *workloadResult, recorded map[string]fingerprint) {
	all := func(f func(r *rep)) {
		for i := range wr.Reps {
			f(&wr.Reps[i])
		}
		for i := range wr.Traced {
			f(&wr.Traced[i])
		}
	}
	// Conservative runs are deterministic: every rep, traced or not, must
	// report the same simulated statistics, L2 counters included.
	if s.ErrBoundPPM == 0 {
		all(func(r *rep) {
			if r.Failure != "" {
				return
			}
			if wr.Fingerprint == nil {
				fp := r.Sim
				wr.Fingerprint = &fp
			} else if d := diffSim(r.Sim, *wr.Fingerprint); d != "" {
				r.Failure = "simulated statistics differ between reps: " + d
			}
		})
		wr.Recorded = "none"
		if want, ok := recorded[s.Name]; ok && wr.Fingerprint != nil {
			wr.Recorded = "match"
			if *wr.Fingerprint != want {
				wr.Recorded = "differs"
			}
		}
	}
	// A rep four times slower than the workload's median is a failed op.
	for _, set := range []*[]rep{&wr.Reps, &wr.Traced} {
		limit := 4 * stats.Median(repSamples(*set, func(r rep) float64 { return r.WallS }))
		for i := range *set {
			if r := &(*set)[i]; r.Failure == "" && r.WallS > limit {
				r.Failure = fmt.Sprintf("took %.2fs, over four times the median", r.WallS)
			}
		}
	}
	if wr.Oracle.Failure != "" {
		// Without an oracle no rep was run: the workload is one failed op.
		wr.Attempted, wr.Failed = 1, 1
		wr.Failures = append(wr.Failures, "oracle: "+wr.Oracle.Failure)
	}
	all(func(r *rep) {
		wr.Attempted++
		if r.Failure != "" {
			wr.Failed++
			wr.Failures = append(wr.Failures, r.Failure)
		}
	})
	samples := map[string]func(r rep) float64{
		"sim_kips":              kips,
		"host_cpu_ns_per_instr": cpuNSPerInstr,
		"sim_accuracy_ppm":      func(r rep) float64 { return 1e6 - errPPM(r.Sim, wr.Oracle.Sim) },
		"peak_rss_mb":           func(r rep) float64 { return r.MaxRSSMB },
		"setup_s":               func(r rep) float64 { return r.SetupS },
	}
	wr.EndToEnd = make(map[string]summary, len(endToEnd))
	for _, d := range endToEnd {
		wr.EndToEnd[d.Name] = summarise(d.Unit, repSamples(wr.Reps, samples[d.Name]))
	}
}

// refusal explains why this host cannot run s, or is empty.
func refusal(s spec) string {
	if n := runtime.NumCPU(); s.HostCores > n {
		return fmt.Sprintf("%s needs %d host cores and this host has %d: a run would measure oversubscription, not the workload", s.Name, s.HostCores, n)
	}
	return ""
}

// layers runs the probes and fills wr.PerLayer from the reps gathered so far.
// A workload whose oracle failed ran no reps and has no layer metrics.
func (b *runner) layers(s spec, wr *workloadResult) error {
	if wr.Oracle.Failure != "" {
		return nil
	}
	u, err := runProbes(&b.sl, s, b.seed, b.probeDiv(), wireBatch(wr.Traced))
	if err != nil {
		return err
	}
	wr.PerLayer, err = layerMetrics(s, wr.Oracle, wr.Reps, wr.Traced, u, wr.Recorded == "match")
	return err
}

// probeSeconds is the share of a traced contract run kept for the probes.
const probeSeconds = 3

// contract measures one workload for about the given number of seconds, the
// way the benchmark driver asks: untraced reps alone for the end-to-end
// metrics, or alternating untraced and traced reps plus the probes for the
// per-layer metrics.
func (b *runner) contract(s spec, seconds float64, traced bool, recorded map[string]fingerprint) (*workloadResult, error) {
	wr := &workloadResult{Name: s.Name, Why: s.Why}
	wr.Oracle = b.oracle(s)
	need := minReps
	if traced {
		need = 1
		seconds -= probeSeconds
	}
	start := time.Now()
	for wr.Oracle.Failure == "" && (len(wr.Reps) < need || time.Since(start).Seconds() < seconds) {
		wr.Reps = append(wr.Reps, b.rep(s, wr.Oracle, false))
		if traced {
			wr.Traced = append(wr.Traced, b.rep(s, wr.Oracle, true))
		}
	}
	finish(s, wr, recorded)
	if !traced {
		return wr, nil
	}
	return wr, b.layers(s, wr)
}

// full runs every workload the way a user of the benchmark does: timed reps
// in seed-shuffled rounds, so that a noisy minute on the host is spread over
// all workloads, then one traced run and the probes per workload.
func (b *runner) full(list []spec, rounds int, recorded map[string]fingerprint) *resultSet {
	set := &resultSet{Schema: "slacksim-bench/1", Header: newHeader(b.seed, b.smoke), Notes: notes}
	for _, s := range list {
		wr := &workloadResult{Name: s.Name, Why: s.Why, Refused: refusal(s)}
		set.Workloads = append(set.Workloads, wr)
		if wr.Refused != "" {
			fmt.Fprintln(b.log, "refused:", wr.Refused)
		}
	}
	rng := rand.New(rand.NewSource(b.seed))
	for round := 0; round < rounds; round++ {
		fmt.Fprintf(b.log, "round %d of %d\n", round+1, rounds)
		for _, i := range rng.Perm(len(list)) {
			s, wr := list[i], set.Workloads[i]
			if wr.Refused != "" {
				continue
			}
			if round == 0 {
				wr.Oracle = b.oracle(s)
			}
			if wr.Oracle.Failure != "" {
				continue
			}
			for n := (s.Reps + rounds - 1) / rounds; n > 0 && len(wr.Reps) < s.Reps; n-- {
				wr.Reps = append(wr.Reps, b.rep(s, wr.Oracle, false))
			}
		}
	}
	fmt.Fprintln(b.log, "traced runs and probes")
	for i, s := range list {
		wr := set.Workloads[i]
		if wr.Refused != "" {
			continue
		}
		if wr.Oracle.Failure == "" {
			wr.Traced = append(wr.Traced, b.rep(s, wr.Oracle, true))
		}
		finish(s, wr, recorded)
		if err := b.layers(s, wr); err != nil {
			wr.Failures = append(wr.Failures, "layer metrics: "+err.Error())
		}
	}
	return set
}

// ok reports whether every workload ran and no op failed.
func (set *resultSet) ok() bool {
	for _, wr := range set.Workloads {
		if wr.Refused != "" || wr.Failed > 0 || len(wr.Failures) > 0 {
			return false
		}
	}
	return true
}

// fingerprints collects the conservative workloads' fingerprints, the
// content of fingerprints.json.
func (set *resultSet) fingerprints() map[string]fingerprint {
	m := make(map[string]fingerprint)
	for _, wr := range set.Workloads {
		if wr.Fingerprint != nil {
			m[wr.Name] = *wr.Fingerprint
		}
	}
	return m
}

// print writes every metric of wr by name and unit.
func (wr *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", wr.Name, wr.Why)
	if wr.Refused != "" {
		fmt.Fprintf(w, "  refused: %s\n", wr.Refused)
		return
	}
	fmt.Fprintf(w, "  %-36s %d of %d ops failed\n", "failed_ops / attempted_ops", wr.Failed, wr.Attempted)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "    failure: %s\n", f)
	}
	if wr.Recorded != "" {
		fmt.Fprintf(w, "  %-36s %s\n", "sim.fingerprint vs recorded", wr.Recorded)
	}
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-36s %14.6g %-10s [%.6g, %.6g] n=%d\n", d.Name, s.Median, s.Unit, s.Min, s.Max, s.N)
	}
	names := make([]string, 0, len(wr.PerLayer))
	for name := range wr.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := wr.PerLayer[name]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, v.Value, v.Unit)
	}
}
