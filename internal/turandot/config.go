// Package turandot is a trace-driven, cycle-level timing simulator of an
// out-of-order superscalar processor, standing in for the IBM Turandot
// model ([7] in the paper) that generated the paper's masking traces.
//
// The default configuration reproduces the paper's Table 1 (a POWER4-like
// core at 2.0 GHz): 8-wide fetch, dispatch groups of 5, a 150-entry
// reorder buffer, a 256-entry physical register file (80 integer + 72 FP
// rename registers plus control state), 2 integer / 2 FP / 2 load-store /
// 1 branch unit with the listed latencies, a 32-entry memory queue, split
// 32KB/64KB L1 caches, a 1MB unified L2, 128-entry TLBs, and 1/10/77-cycle
// contentionless latencies.
//
// The simulator's product is the set of cycle-granularity masking
// traces of Section 4.1: whether the instruction-decode, integer, and
// floating-point units were busy each cycle (a raw error in an idle unit
// is masked), and the fraction of register-file entries holding a value
// that will be read again (an error in a dead register is masked). Run
// builds them as runs of cycles, never as per-cycle arrays.
//
// Run is event-driven but bit-identical to a cycle-by-cycle loop. Each
// cycle retires, issues, dispatches and fetches in that order; a cycle
// in which none of these moved an instruction and no fetch stall began
// changes no state, so Run jumps to the earliest time a stage can move
// again (the reorder-buffer head's completion, a waiting instruction's
// operands and unit, the end of a fetch stall) and charges the skipped
// cycles to the stall counter the quiet cycle bumped. Issue scans only
// the dispatched, unissued instructions. The cycle-by-cycle loop
// survives in the tests as referenceRun, the oracle Run must match.
package turandot

import (
	"fmt"

	"github.com/soferr/soferr/internal/mem"
)

// Config describes the simulated core. DefaultConfig returns the
// paper's Table 1 machine.
type Config struct {
	// FetchWidth is the maximum instructions fetched per cycle.
	FetchWidth int
	// FetchQueueSize bounds the fetch/decode buffer.
	FetchQueueSize int
	// DispatchWidth is the dispatch-group size (instructions entering
	// the ROB per cycle).
	DispatchWidth int
	// RetireWidth is the maximum instructions retired per cycle (one
	// dispatch group).
	RetireWidth int
	// ROBSize is the reorder-buffer capacity.
	ROBSize int
	// IntRenameRegs and FPRenameRegs are the physical register counts
	// for the two classes; rename capacity beyond the architectural
	// registers bounds in-flight producers.
	IntRenameRegs int
	FPRenameRegs  int
	// RegFileEntries is the total physical register file size used as
	// the denominator of the register-file AVF (Table 1: 256).
	RegFileEntries int
	// MemQueueSize bounds in-flight memory operations.
	MemQueueSize int

	// Functional-unit counts.
	IntUnits int
	FPUnits  int
	LSUnits  int
	BrUnits  int

	// Latencies in cycles.
	IntALULatency int
	IntMulLatency int
	IntDivLatency int // unpipelined
	FPLatency     int
	FPDivLatency  int // pipelined
	BranchLatency int
	StoreLatency  int

	// PredictorBits sizes the gshare branch predictor table (2^bits
	// two-bit counters).
	PredictorBits int

	// Mem configures the cache/TLB hierarchy.
	Mem mem.HierarchyConfig
}

// DefaultConfig returns the base POWER4-like processor of Table 1.
func DefaultConfig() Config {
	return Config{
		FetchWidth:     8,
		FetchQueueSize: 32,
		DispatchWidth:  5,
		RetireWidth:    5,
		ROBSize:        150,
		IntRenameRegs:  80,
		FPRenameRegs:   72,
		RegFileEntries: 256,
		MemQueueSize:   32,

		IntUnits: 2,
		FPUnits:  2,
		LSUnits:  2,
		BrUnits:  1,

		IntALULatency: 1,
		IntMulLatency: 4,
		IntDivLatency: 35,
		FPLatency:     5,
		FPDivLatency:  28,
		BranchLatency: 1,
		StoreLatency:  1,

		PredictorBits: 12,

		Mem: mem.HierarchyConfig{
			L1I: mem.CacheConfig{SizeBytes: 64 * 1024, LineBytes: 128, Ways: 1, LatencyCycles: 1},
			L1D: mem.CacheConfig{SizeBytes: 32 * 1024, LineBytes: 128, Ways: 2, LatencyCycles: 1},
			L2:  mem.CacheConfig{SizeBytes: 1024 * 1024, LineBytes: 128, Ways: 4, LatencyCycles: 10},
			ITLB: mem.TLBConfig{
				Entries: 128, PageBytes: 4096, MissPenaltyCycles: 30,
			},
			DTLB: mem.TLBConfig{
				Entries: 128, PageBytes: 4096, MissPenaltyCycles: 30,
			},
			MemLatencyCycles: 77,
		},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	type bound struct {
		name string
		v    int
		min  int
	}
	checks := []bound{
		{"FetchWidth", c.FetchWidth, 1},
		{"FetchQueueSize", c.FetchQueueSize, 1},
		{"DispatchWidth", c.DispatchWidth, 1},
		{"RetireWidth", c.RetireWidth, 1},
		{"ROBSize", c.ROBSize, 1},
		{"IntRenameRegs", c.IntRenameRegs, 33},
		{"FPRenameRegs", c.FPRenameRegs, 33},
		{"RegFileEntries", c.RegFileEntries, 1},
		{"MemQueueSize", c.MemQueueSize, 1},
		{"IntUnits", c.IntUnits, 1},
		{"FPUnits", c.FPUnits, 1},
		{"LSUnits", c.LSUnits, 1},
		{"BrUnits", c.BrUnits, 1},
		{"IntALULatency", c.IntALULatency, 1},
		{"IntMulLatency", c.IntMulLatency, 1},
		{"IntDivLatency", c.IntDivLatency, 1},
		{"FPLatency", c.FPLatency, 1},
		{"FPDivLatency", c.FPDivLatency, 1},
		{"BranchLatency", c.BranchLatency, 1},
		{"StoreLatency", c.StoreLatency, 1},
		{"PredictorBits", c.PredictorBits, 1},
	}
	for _, b := range checks {
		if b.v < b.min {
			return fmt.Errorf("turandot: %s = %d, need >= %d", b.name, b.v, b.min)
		}
	}
	if c.PredictorBits > 24 {
		return fmt.Errorf("turandot: PredictorBits = %d too large", c.PredictorBits)
	}
	return nil
}
