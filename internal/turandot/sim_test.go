package turandot

import (
	"math"
	"testing"

	"github.com/soferr/soferr/internal/isa"
)

func run(t *testing.T, prog []isa.Inst) *Result {
	t.Helper()
	sim, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// seqPCs assigns PCs looping over a 4 KB code footprint, so after the
// first pass instruction fetch is warm and the test measures
// steady-state pipeline behaviour rather than compulsory icache misses.
func seqPCs(prog []isa.Inst) []isa.Inst {
	const codeWords = 1024
	for i := range prog {
		prog[i].PC = uint64(i%codeWords) * 4
	}
	return prog
}

// aluChain builds n dependent 1-cycle integer ops r5 = r5 + r5.
func aluChain(n int) []isa.Inst {
	prog := make([]isa.Inst, n)
	for i := range prog {
		prog[i] = isa.Inst{Class: isa.IntALU, Dest: isa.IntReg(5), Src1: isa.IntReg(5), Src2: isa.IntReg(5)}
	}
	return seqPCs(prog)
}

// aluIndependent builds n independent integer ops across registers.
func aluIndependent(n int) []isa.Inst {
	prog := make([]isa.Inst, n)
	for i := range prog {
		r := isa.IntReg(4 + i%16)
		prog[i] = isa.Inst{Class: isa.IntALU, Dest: r, Src1: isa.IntReg(1), Src2: isa.IntReg(2)}
	}
	return seqPCs(prog)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.ROBSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ROB accepted")
	}
	bad = DefaultConfig()
	bad.IntRenameRegs = 10 // fewer than architectural registers
	if err := bad.Validate(); err == nil {
		t.Error("too-few rename regs accepted")
	}
	if _, err := New(bad); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestEmptyProgram(t *testing.T) {
	sim, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(nil); err == nil {
		t.Error("empty program accepted")
	}
}

func TestInvalidInstructionRejected(t *testing.T) {
	sim, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run([]isa.Inst{{Class: 0}}); err == nil {
		t.Error("invalid instruction accepted")
	}
}

func TestAllRetired(t *testing.T) {
	res := run(t, aluIndependent(5000))
	if res.Stats.Retired != 5000 {
		t.Errorf("retired %d, want 5000", res.Stats.Retired)
	}
	if res.Stats.Fetched != 5000 || res.Stats.Dispatched != 5000 || res.Stats.Issued != 5000 {
		t.Errorf("pipeline counts: %+v", res.Stats)
	}
}

func TestDependentChainIPCNearOne(t *testing.T) {
	// A chain of dependent 1-cycle ops can execute at most one per cycle.
	res := run(t, aluChain(20000))
	ipc := res.Stats.IPC()
	if ipc > 1.01 {
		t.Errorf("dependent chain IPC = %v, cannot exceed 1", ipc)
	}
	if ipc < 0.80 {
		t.Errorf("dependent chain IPC = %v, pipeline overhead too high", ipc)
	}
}

func TestIndependentOpsBoundByIntUnits(t *testing.T) {
	// Independent integer ops are bound by the 2 integer units.
	res := run(t, aluIndependent(20000))
	ipc := res.Stats.IPC()
	if ipc > 2.01 {
		t.Errorf("IPC = %v exceeds integer-unit bound of 2", ipc)
	}
	if ipc < 1.6 {
		t.Errorf("IPC = %v, want near 2 for independent ops", ipc)
	}
}

func TestMixedIntFPExceedsIntBound(t *testing.T) {
	// Interleaved independent int and FP ops can use both unit pools;
	// IPC should exceed the 2.0 int-only bound (dispatch width 5,
	// 2 int + 2 fp units available).
	n := 20000
	prog := make([]isa.Inst, n)
	for i := range prog {
		if i%2 == 0 {
			prog[i] = isa.Inst{Class: isa.IntALU, Dest: isa.IntReg(4 + i%16), Src1: isa.IntReg(1)}
		} else {
			prog[i] = isa.Inst{Class: isa.FPOp, Dest: isa.FPReg(4 + i%16), Src1: isa.FPReg(1)}
		}
	}
	res := run(t, seqPCs(prog))
	if ipc := res.Stats.IPC(); ipc < 2.5 {
		t.Errorf("mixed IPC = %v, want > 2.5", ipc)
	}
}

func TestIntDivUnpipelined(t *testing.T) {
	// Back-to-back independent divides serialize on the two unpipelined
	// integer units: throughput approaches 2 per 35 cycles.
	n := 2000
	prog := make([]isa.Inst, n)
	for i := range prog {
		prog[i] = isa.Inst{Class: isa.IntDiv, Dest: isa.IntReg(4 + i%16), Src1: isa.IntReg(1), Src2: isa.IntReg(2)}
	}
	res := run(t, seqPCs(prog))
	wantCycles := float64(n) * 35 / 2
	got := float64(res.Stats.Cycles)
	if got < wantCycles*0.95 {
		t.Errorf("cycles = %v, want >= %v (unpipelined divide)", got, wantCycles*0.95)
	}
	if got > wantCycles*1.15 {
		t.Errorf("cycles = %v, want ~%v", got, wantCycles)
	}
}

func TestFPDivPipelined(t *testing.T) {
	// FP divide is pipelined (Table 1): independent divides issue every
	// cycle, so throughput is unit-bound (2/cycle), far better than the
	// unpipelined case. Use enough instructions to amortize cold-start
	// instruction-cache fills (~2.5k cycles).
	n := 20000
	prog := make([]isa.Inst, n)
	for i := range prog {
		prog[i] = isa.Inst{Class: isa.FPDiv, Dest: isa.FPReg(4 + i%16), Src1: isa.FPReg(1), Src2: isa.FPReg(2)}
	}
	res := run(t, seqPCs(prog))
	maxCycles := float64(n)/2*1.4 + 3000
	if float64(res.Stats.Cycles) > maxCycles {
		t.Errorf("cycles = %d, want < %v for pipelined FP divide", res.Stats.Cycles, maxCycles)
	}
}

func TestLoadMissesSlowExecution(t *testing.T) {
	// Loads revisiting a warm 4 KB working set (all L1 hits after one
	// pass) vs loads striding far beyond L2: misses must cost many more
	// cycles.
	const n = 3000
	mk := func(addr func(i int) uint64) []isa.Inst {
		prog := make([]isa.Inst, n)
		for i := range prog {
			prog[i] = isa.Inst{
				Class: isa.Load, Dest: isa.IntReg(4 + i%8), Src1: isa.IntReg(1),
				Addr: addr(i),
			}
		}
		return seqPCs(prog)
	}
	hit := run(t, mk(func(i int) uint64 { return uint64(i%512) * 8 }))
	miss := run(t, mk(func(i int) uint64 { return uint64(i) * 128 * 1024 }))
	if miss.Stats.Cycles < hit.Stats.Cycles*3 {
		t.Errorf("miss run %d cycles vs hit run %d: memory system has no effect",
			miss.Stats.Cycles, hit.Stats.Cycles)
	}
	if miss.Stats.L2Misses < n/2 {
		t.Errorf("expected pervasive L2 misses in striding run, got %d", miss.Stats.L2Misses)
	}
	if hit.Stats.L1DMisses > n/10 {
		t.Errorf("hit run has %d L1D misses, want few", hit.Stats.L1DMisses)
	}
}

func TestBranchMispredictsSlowExecution(t *testing.T) {
	mk := func(random bool) []isa.Inst {
		n := 20000
		prog := make([]isa.Inst, n)
		taken := false
		for i := range prog {
			if i%5 == 4 {
				if random {
					taken = (i*2654435761)%7 < 3 // pseudo-random pattern
				} else {
					taken = false // perfectly predictable
				}
				prog[i] = isa.Inst{Class: isa.Branch, Src1: isa.IntReg(1), Taken: taken}
			} else {
				prog[i] = isa.Inst{Class: isa.IntALU, Dest: isa.IntReg(4 + i%16), Src1: isa.IntReg(1)}
			}
		}
		return seqPCs(prog)
	}
	predictable := run(t, mk(false))
	random := run(t, mk(true))
	if random.Stats.Mispredicts <= predictable.Stats.Mispredicts {
		t.Errorf("mispredicts: random %d <= predictable %d",
			random.Stats.Mispredicts, predictable.Stats.Mispredicts)
	}
	if random.Stats.Cycles <= predictable.Stats.Cycles {
		t.Errorf("cycles: random %d <= predictable %d — mispredicts cost nothing",
			random.Stats.Cycles, predictable.Stats.Cycles)
	}
}

func TestBusyBitsMatchWorkloadClass(t *testing.T) {
	// An FP-only program must never mark the integer unit busy, and vice
	// versa; decode must be busy while dispatching.
	fpOnly := make([]isa.Inst, 3000)
	for i := range fpOnly {
		fpOnly[i] = isa.Inst{Class: isa.FPOp, Dest: isa.FPReg(4 + i%16), Src1: isa.FPReg(1)}
	}
	res := run(t, seqPCs(fpOnly))
	for _, s := range res.Traces.Int.Segments() {
		if s.Vuln != 0 {
			t.Fatalf("integer unit busy at %v s in FP-only program", s.Start)
		}
	}
	if res.Traces.FP.AVF() == 0 {
		t.Error("FP unit never busy in FP-only program")
	}
	if res.Traces.Decode.AVF() == 0 {
		t.Error("decode never busy")
	}
}

func TestBusyDurationsScaleWithLatency(t *testing.T) {
	// A long stream of independent FP ops keeps the FP pipeline busy
	// nearly every warm cycle; size the run so cold instruction-cache
	// fills (~2.5k idle cycles) cannot dominate the fraction.
	n := 20000
	prog := make([]isa.Inst, n)
	for i := range prog {
		prog[i] = isa.Inst{Class: isa.FPOp, Dest: isa.FPReg(4 + i%16), Src1: isa.FPReg(1)}
	}
	res := run(t, seqPCs(prog))
	if frac := res.Traces.FP.AVF(); frac < 0.75 {
		t.Errorf("FP busy fraction = %v, want > 0.75 for a saturated FP stream", frac)
	}
}

func TestRegLiveReflectsDeadValues(t *testing.T) {
	// Program A: every value is read by the next instruction (all live).
	// Program B: values are written and never read (all dead).
	mkLive := func() []isa.Inst {
		prog := make([]isa.Inst, 2000)
		for i := range prog {
			prog[i] = isa.Inst{Class: isa.IntALU, Dest: isa.IntReg(5 + i%2), Src1: isa.IntReg(5 + (i+1)%2)}
		}
		return seqPCs(prog)
	}
	mkDead := func() []isa.Inst {
		prog := make([]isa.Inst, 2000)
		for i := range prog {
			prog[i] = isa.Inst{Class: isa.IntALU, Dest: isa.IntReg(5 + i%16)} // no sources
		}
		return seqPCs(prog)
	}
	live := run(t, mkLive())
	dead := run(t, mkDead())
	liveAvg, deadAvg := live.Traces.RegFile.AVF(), dead.Traces.RegFile.AVF()
	if liveAvg <= deadAvg {
		t.Errorf("reg liveness: live program %v <= dead program %v", liveAvg, deadAvg)
	}
	if deadAvg > 0.02 {
		t.Errorf("dead program liveness = %v, want ~0", deadAvg)
	}
	for _, s := range live.Traces.RegFile.Segments() {
		if s.Vuln < 0 || s.Vuln > 1 {
			t.Fatalf("liveness out of range at %v s: %v", s.Start, s.Vuln)
		}
	}
}

func TestDeterminism(t *testing.T) {
	prog := aluIndependent(5000)
	a := run(t, prog)
	b := run(t, prog)
	if a.Stats != b.Stats {
		t.Errorf("stats differ across runs:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestTracesRoundTrip(t *testing.T) {
	res := run(t, aluIndependent(3000))
	traces := res.Traces
	wantPeriod := float64(res.Stats.Cycles) * 0.5e-9
	for name, tr := range map[string]interface {
		Period() float64
		AVF() float64
	}{
		"decode": traces.Decode, "int": traces.Int, "fp": traces.FP, "regfile": traces.RegFile,
	} {
		if math.Abs(tr.Period()-wantPeriod)/wantPeriod > 1e-9 {
			t.Errorf("%s period = %v, want %v", name, tr.Period(), wantPeriod)
		}
		if tr.AVF() < 0 || tr.AVF() > 1 {
			t.Errorf("%s AVF = %v out of range", name, tr.AVF())
		}
	}
	if traces.Int.AVF() == 0 {
		t.Error("integer AVF = 0 for an integer workload")
	}
	if traces.FP.AVF() != 0 {
		t.Error("FP AVF != 0 for an integer-only workload")
	}
}

func TestStatsString(t *testing.T) {
	res := run(t, aluIndependent(1000))
	if res.Stats.String() == "" {
		t.Error("empty stats string")
	}
	if res.Stats.MispredictRate() != 0 {
		t.Errorf("mispredict rate = %v for branchless program", res.Stats.MispredictRate())
	}
}
