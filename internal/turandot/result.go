package turandot

import (
	"fmt"
	"slices"

	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/units"
)

// Stats aggregates the timing simulator's counters.
type Stats struct {
	Cycles       uint64
	Instructions uint64

	Fetched    uint64
	Dispatched uint64
	Issued     uint64
	Retired    uint64

	Branches    uint64
	Mispredicts uint64

	L1IHits, L1IMisses uint64
	L1DHits, L1DMisses uint64
	L2Hits, L2Misses   uint64
	ITLBMisses         uint64
	DTLBMisses         uint64

	StallROB         uint64
	StallRename      uint64
	StallMemQ        uint64
	FetchStallCycles int64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MispredictRate returns the fraction of branches mispredicted.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// String summarizes the run.
func (s Stats) String() string {
	return fmt.Sprintf("cycles=%d insts=%d ipc=%.3f branches=%d mispred=%.1f%% l1d-miss=%d l2-miss=%d",
		s.Cycles, s.Instructions, s.IPC(), s.Branches, 100*s.MispredictRate(), s.L1DMisses, s.L2Misses)
}

// Result is the outcome of one simulation: timing statistics plus the
// masking traces of the four studied components.
type Result struct {
	Config Config
	Stats  Stats

	// Traces are the masking traces at the base clock (Table 1: 2.0
	// GHz). Decode, Int and FP are vulnerable in the cycles their unit
	// was processing an instruction (Section 4.1's masking rule: a raw
	// error in an idle unit is masked); RegFile's level is the fraction
	// of register-file entries holding a value that will be read again
	// (an error in any other entry is masked).
	Traces ComponentTraces
}

// busyRuns records when one unit is busy directly as the alternating
// idle and busy segments of its masking trace; no per-cycle bitmap is
// built. Marks start at the cycle an instruction issues, which never
// decreases, so the open busy run [start, end) is final once a mark
// starts past its end.
type busyRuns struct {
	segs       []trace.Segment
	closed     int64 // segs cover the cycles [0, closed)
	start, end int64 // the open busy run; empty when start == end
}

// mark records that the unit is busy in the cycles [from, to).
func (b *busyRuns) mark(from, to int64) {
	if to <= from {
		return
	}
	if b.start < b.end && from <= b.end {
		b.end = max(b.end, to)
		return
	}
	b.flush()
	b.start, b.end = from, to
}

// flush closes the open busy run, preceded by the idle gap before it.
func (b *busyRuns) flush() {
	if b.start == b.end {
		return
	}
	if len(b.segs)+2 > cap(b.segs) {
		// Double, rather than append's gentler growth for large
		// slices, to keep the discarded arrays small.
		b.segs = slices.Grow(b.segs, len(b.segs)+2)
	}
	if b.closed < b.start {
		b.segs = append(b.segs, cycleSegment(b.closed, b.start, 0))
	}
	b.segs = append(b.segs, cycleSegment(b.start, b.end, 1))
	b.closed, b.start = b.end, b.end
}

// trace closes the record at the final cycle count and builds the
// unit's masking trace.
func (b *busyRuns) trace(cycles int64) (*trace.Piecewise, error) {
	b.flush()
	if b.closed < cycles {
		b.segs = append(b.segs, cycleSegment(b.closed, cycles, 0))
	}
	return trace.NewPiecewise(b.segs)
}

// cycleSegment is the segment covering the cycles [from, to).
func cycleSegment(from, to int64, vuln float64) trace.Segment {
	const cycleSeconds = units.SecondsPerCycle
	return trace.Segment{Start: float64(from) * cycleSeconds, End: float64(to) * cycleSeconds, Vuln: vuln}
}

// regLive builds the register-file trace from the def/use records: its
// level in a cycle is the fraction of live register values, and a value
// is live — an error in it unmasked — from the cycle it is written
// until the last cycle it is read (Section 4.1's conservative rule).
// Values never read contribute nothing; only an instruction that writes
// a register is ever read, so lastRead alone picks out the values.
func regLive(wbCycle, lastRead, initLastRead []int64, cycles int64, regFileEntries int) (*trace.Piecewise, error) {
	// live starts as a difference array of live-value counts and is
	// prefix-summed in place.
	live := make([]int32, cycles)
	mark := func(from, to int64) {
		if to < from {
			return
		}
		if from < 0 {
			from = 0
		}
		if to >= cycles {
			to = cycles - 1
		}
		live[from]++
		if to+1 < cycles {
			live[to+1]--
		}
	}
	for id, last := range lastRead {
		if last >= 0 {
			mark(wbCycle[id], last)
		}
	}
	for reg := range initLastRead {
		if initLastRead[reg] >= 0 {
			mark(0, initLastRead[reg])
		}
	}
	level := func(count int32) float64 {
		return min(float64(count)/float64(regFileEntries), 1)
	}
	runs, prev := 1, level(live[0])
	for c := 1; c < len(live); c++ {
		live[c] += live[c-1]
		if l := level(live[c]); l != prev {
			runs, prev = runs+1, l
		}
	}
	segs := make([]trace.Segment, 0, runs)
	runStart, runLevel := int64(0), level(live[0])
	for c := int64(1); c < cycles; c++ {
		if l := level(live[c]); l != runLevel {
			segs = append(segs, cycleSegment(runStart, c, runLevel))
			runStart, runLevel = c, l
		}
	}
	return trace.NewPiecewise(append(segs, cycleSegment(runStart, cycles, runLevel)))
}

// ComponentTraces bundles the masking traces of the four components
// studied in Section 4.1.
type ComponentTraces struct {
	Decode  *trace.Piecewise
	Int     *trace.Piecewise
	FP      *trace.Piecewise
	RegFile *trace.Piecewise
}
