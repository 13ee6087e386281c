package cpu

import (
	"math"

	"slacksim/internal/isa"
)

// aluResult is the outcome of functionally executing a non-memory,
// non-syscall instruction.
type aluResult struct {
	intVal    int64
	fpVal     float64
	writesInt bool
	writesFP  bool
	isCTI     bool
	taken     bool
	next      uint64 // architectural next pc
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// saturatingInt converts a float64 to int64 without the undefined behaviour
// of out-of-range conversions.
func saturatingInt(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

// execLatency returns the result latency class of in.
func execLatency(cfg *Config, in isa.Inst) int64 {
	switch in.Op {
	case isa.OpMUL:
		return cfg.MulLat
	case isa.OpDIV, isa.OpREM:
		return cfg.DivLat
	case isa.OpFADD, isa.OpFSUB, isa.OpFMIN, isa.OpFMAX, isa.OpFABS, isa.OpFNEG, isa.OpFMOV,
		isa.OpFCVTDW, isa.OpFCVTWD, isa.OpFMVXD, isa.OpFMVDX, isa.OpFEQ, isa.OpFLT, isa.OpFLE:
		return cfg.FPAddLat
	case isa.OpFMUL:
		return cfg.FPMulLat
	case isa.OpFDIV:
		return cfg.FPDivLat
	case isa.OpFSQRT:
		return cfg.FPSqrtLat
	}
	return cfg.IntALULat
}
