// Command bench is the repository's benchmark: six workloads, each a target
// program under one slack scheme on one execution driver, measured for
// simulation speed, host CPU cost, accuracy against the serial engine,
// memory and set-up time, with a per-layer cost ledger from a traced run.
// README.md explains the metrics and how to read the output.
//
//	bash bench/run.sh -seed N                 full run into .bench_build/
//	bash bench/run.sh -agree A.json B.json    compare two result sets
//	bash bench/run.sh -smoke                  every workload at scale 1, once
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is the benchmark driver's: it measures one workload and
// prints one JSON object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the run order and the probe streams")
	out := fs.String("out", "", "directory for results.json, spans.json and fingerprints.json")
	smoke := fs.Bool("smoke", false, "run every workload at scale 1 for one rep, with probes at 1/100 length")
	doAgree := fs.Bool("agree", false, "compare the two result sets named as arguments; exit 1 if any metric differs")
	workload := fs.String("workload", "", "measure only this workload and print the driver's JSON line")
	seconds := fs.Float64("seconds", 12, "with -workload: how long to measure")
	traced := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	if *doAgree {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-agree takes two result files"))
		}
		a, err := readResultSet(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readResultSet(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !agree(os.Stdout, a, b) {
			return 1
		}
		return 0
	}

	recorded, err := recordedFingerprints()
	if err != nil {
		return fail(err)
	}
	b := &runner{seed: *seed, smoke: *smoke, log: os.Stderr}
	writeSpans := func() error {
		if *out == "" {
			return nil
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		return b.sl.write(filepath.Join(*out, "spans.json"))
	}

	if *workload != "" {
		s, err := findSpec(*workload)
		if err != nil {
			return fail(err)
		}
		if why := refusal(s); why != "" {
			return fail(fmt.Errorf("refused: %s", why))
		}
		wr, err := b.contract(s, *seconds, *traced != 0, recorded)
		if err != nil {
			return fail(err)
		}
		if err := writeSpans(); err != nil {
			return fail(err)
		}
		wr.print(os.Stdout)
		line, err := json.Marshal(wr.driverLine(*traced != 0))
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s\n", line)
		return 0
	}

	list, rounds := specs, 5
	if *smoke {
		list, rounds = nil, 1
		for _, s := range specs {
			list = append(list, smokeSpec(s))
		}
		recorded = nil // recorded at full scale
	}
	set := b.full(list, rounds, recorded)
	for _, wr := range set.Workloads {
		wr.print(os.Stdout)
	}
	if *out != "" {
		if err := writeSpans(); err != nil {
			return fail(err)
		}
		if err := writeJSON(filepath.Join(*out, "results.json"), set); err != nil {
			return fail(err)
		}
		if err := writeJSON(filepath.Join(*out, "fingerprints.json"), set.fingerprints()); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote results.json, spans.json and fingerprints.json to %s\n", *out)
	}
	if !set.ok() {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// driverLine is the object the benchmark driver reads: the end-to-end
// medians of an untraced run, or the per-layer metrics of a traced one.
func (wr *workloadResult) driverLine(traced bool) map[string]any {
	metrics := make(map[string]value)
	if traced {
		for name, v := range wr.PerLayer {
			metrics[name] = v
		}
	} else {
		for name, s := range wr.EndToEnd {
			metrics[name] = value{Value: s.Median, Unit: s.Unit}
		}
	}
	return map[string]any{
		"correct":   wr.Failed == 0,
		"attempted": wr.Attempted,
		"failed":    wr.Failed,
		"metrics":   metrics,
	}
}
