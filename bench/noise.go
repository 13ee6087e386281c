package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// header says where and on what a result set was measured.
type header struct {
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	Seed      int64  `json:"seed"`
	Smoke     bool   `json:"smoke,omitempty"`
}

func newHeader(seed int64, smoke bool) header {
	return header{
		NProc:     runtime.NumCPU(),
		CPUModel:  cpuModel(),
		GoVersion: runtime.Version(),
		Commit:    commit(),
		Seed:      seed,
		Smoke:     smoke,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the go tool stamped into the binary, which it can
// only do when the checkout is a git repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// stealSeconds is the time the hypervisor has withheld from this guest's
// CPUs since boot, summed over CPUs; 0 where /proc/stat does not say.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ is 100 on every Linux ABI
}

// loadAvg1 is the 1-minute load average, 0 where /proc/loadavg is missing.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}
