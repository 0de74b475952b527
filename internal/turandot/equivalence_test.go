package turandot

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/soferr/soferr/internal/isa"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/workload"
)

// Run skips quiet cycles, scans only waiting instructions and builds
// its masking traces without per-cycle arrays; these tests hold it to
// referenceRun, the cycle-by-cycle loop, bit for bit: the same Stats
// and the same four masking traces (the reference compresses its
// per-cycle busy bits and liveness levels with trace.FromBits and
// trace.FromLevels), or the same error.

// checkMatchesReference runs prog through Run and referenceRun, each on
// a fresh simulator of cfg, and reports any difference.
func checkMatchesReference(t *testing.T, cfg Config, prog []isa.Inst) {
	t.Helper()
	got, gotErr := runOn(t, cfg, prog, (*Sim).Run)
	want, wantErr := runOn(t, cfg, prog, referenceRun)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error: Run %v, reference %v", gotErr, wantErr)
		}
		return
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats differ:\n  Run       %+v\n  reference %+v", got.Stats, want.Stats)
	}
	for _, c := range []struct {
		name      string
		got, want *trace.Piecewise
	}{
		{"Decode", got.Traces.Decode, want.Traces.Decode},
		{"Int", got.Traces.Int, want.Traces.Int},
		{"FP", got.Traces.FP, want.Traces.FP},
		{"RegFile", got.Traces.RegFile, want.Traces.RegFile},
	} {
		if !slices.EqualFunc(c.got.Segments(), c.want.Segments(), func(a, b trace.Segment) bool {
			return math.Float64bits(a.Start) == math.Float64bits(b.Start) &&
				math.Float64bits(a.End) == math.Float64bits(b.End) &&
				math.Float64bits(a.Vuln) == math.Float64bits(b.Vuln)
		}) {
			t.Fatalf("%s trace differs (%d and %d segments)", c.name, c.got.NumSegments(), c.want.NumSegments())
		}
	}
}

func runOn(t *testing.T, cfg Config, prog []isa.Inst, run func(*Sim, []isa.Inst) (*Result, error)) (*Result, error) {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return run(sim, prog)
}

func TestRunMatchesReferenceOnWorkloads(t *testing.T) {
	type program struct {
		name     string
		generate func(n int, seed uint64) ([]isa.Inst, error)
	}
	var progs []program
	for _, p := range workload.All() {
		progs = append(progs, program{p.Name, p.Generate})
	}
	for _, pp := range workload.PhasedPrograms() {
		progs = append(progs, program{pp.Name, pp.Generate})
	}
	counts := []int{3000, 300000}
	if testing.Short() {
		counts = counts[:1]
	}
	for _, p := range progs {
		for _, n := range counts {
			for _, seed := range []uint64{1, 7} {
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", p.name, n, seed), func(t *testing.T) {
					t.Parallel()
					prog, err := p.generate(n, seed)
					if err != nil {
						t.Fatal(err)
					}
					checkMatchesReference(t, DefaultConfig(), prog)
				})
			}
		}
	}
}

// ablationConfigs are the single-resource changes of the ablation tests.
func ablationConfigs() map[string]Config {
	cfgs := map[string]Config{}
	set := func(name string, edit func(*Config)) {
		c := DefaultConfig()
		edit(&c)
		cfgs[name] = c
	}
	set("default", func(*Config) {})
	set("IntUnits=1", func(c *Config) { c.IntUnits = 1 })
	set("ROBSize=8", func(c *Config) { c.ROBSize = 8 })
	set("MemQueueSize=2", func(c *Config) { c.MemQueueSize = 2 })
	set("FPRenameRegs=36", func(c *Config) { c.FPRenameRegs = 36 })
	set("DispatchWidth=1", func(c *Config) { c.DispatchWidth = 1 })
	set("L2Latency=40", func(c *Config) { c.Mem.L2.LatencyCycles = 40 })
	return cfgs
}

// edgePrograms are hand-built programs at the corners of the loop: one
// instruction, nothing but unpipelined divides, divides that hold every
// integer unit behind a missing load, a mispredict on every branch, and
// loads that miss the TLB every time.
func edgePrograms(cfg Config) map[string][]isa.Inst {
	progs := map[string][]isa.Inst{
		"one":           {{Class: isa.IntALU, Dest: isa.IntReg(1), Src1: isa.IntReg(2)}},
		"intdiv":        make([]isa.Inst, 2000),
		"intdivChain":   make([]isa.Inst, 500),
		"divBehindMiss": make([]isa.Inst, 0, 1600),
		"mispredict":    make([]isa.Inst, 4000),
		"tlbStride":     make([]isa.Inst, 3000),
	}
	for i := range progs["intdiv"] {
		progs["intdiv"][i] = isa.Inst{Class: isa.IntDiv, Dest: isa.IntReg(4 + i%16), Src1: isa.IntReg(1), Src2: isa.IntReg(2)}
	}
	for i := range progs["intdivChain"] {
		progs["intdivChain"][i] = isa.Inst{Class: isa.IntDiv, Dest: isa.IntReg(5), Src1: isa.IntReg(5)}
	}
	// A load that misses to memory heads the ROB while two divides hold
	// both integer units; the independent ALU ops behind them wait for
	// a unit, not for an operand, and no completion they wait on is
	// the head's.
	for g := 0; len(progs["divBehindMiss"]) < cap(progs["divBehindMiss"]); g++ {
		progs["divBehindMiss"] = append(progs["divBehindMiss"],
			isa.Inst{Class: isa.Load, Dest: isa.IntReg(20 + g%4), Src1: isa.IntReg(1), Addr: uint64(g) << 20},
			isa.Inst{Class: isa.IntDiv, Dest: isa.IntReg(4), Src1: isa.IntReg(1)},
			isa.Inst{Class: isa.IntDiv, Dest: isa.IntReg(5), Src1: isa.IntReg(1)},
			isa.Inst{Class: isa.IntALU, Dest: isa.IntReg(6), Src1: isa.IntReg(2)},
			isa.Inst{Class: isa.IntALU, Dest: isa.IntReg(7), Src1: isa.IntReg(2)},
			isa.Inst{Class: isa.IntALU, Dest: isa.IntReg(8), Src1: isa.IntReg(2)},
			isa.Inst{Class: isa.IntALU, Dest: isa.IntReg(9), Src1: isa.IntReg(2)},
			isa.Inst{Class: isa.IntALU, Dest: isa.IntReg(10), Src1: isa.IntReg(2)},
		)
	}
	// Each branch takes the direction a shadow predictor, trained on
	// the same branch sequence, does not predict.
	shadow := newPredictor(cfg.PredictorBits)
	for i := range progs["mispredict"] {
		in := isa.Inst{Class: isa.IntALU, Dest: isa.IntReg(4 + i%8), Src1: isa.IntReg(4 + (i+3)%8)}
		if i%3 == 2 {
			pc := uint64(i%1024) * 4
			taken := !shadow.predict(pc)
			shadow.update(pc, taken)
			in = isa.Inst{Class: isa.Branch, Src1: isa.IntReg(4 + i%8), Taken: taken}
		}
		progs["mispredict"][i] = in
	}
	// Pages cycled through a window wider than the TLB: LRU misses on
	// every load.
	pages := uint64(cfg.Mem.DTLB.Entries + 37)
	for i := range progs["tlbStride"] {
		progs["tlbStride"][i] = isa.Inst{Class: isa.Load, Dest: isa.IntReg(4 + i%8), Src1: isa.IntReg(1),
			Addr: uint64(i) % pages * uint64(cfg.Mem.DTLB.PageBytes)}
	}
	for name, prog := range progs {
		if name != "one" {
			seqPCs(prog)
		}
	}
	return progs
}

func TestEdgeProgramsReachTheirCorners(t *testing.T) {
	progs := edgePrograms(DefaultConfig())
	res := run(t, progs["mispredict"])
	if res.Stats.Branches == 0 || res.Stats.Mispredicts != res.Stats.Branches {
		t.Errorf("mispredict program: %d of %d branches mispredicted", res.Stats.Mispredicts, res.Stats.Branches)
	}
	res = run(t, progs["tlbStride"])
	if res.Stats.DTLBMisses != uint64(len(progs["tlbStride"])) {
		t.Errorf("tlbStride program: %d DTLB misses for %d loads", res.Stats.DTLBMisses, len(progs["tlbStride"]))
	}
}

func TestRunMatchesReferenceOnAblationsAndEdges(t *testing.T) {
	var profiles []workload.Profile
	for _, name := range []string{"gzip", "swim", "mcf"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	for cfgName, cfg := range ablationConfigs() {
		progs := edgePrograms(cfg)
		progs["independentMix"] = independentMix(6000)
		for _, p := range profiles {
			prog, err := p.Generate(3000, 1)
			if err != nil {
				t.Fatal(err)
			}
			progs[p.Name] = prog
		}
		for progName, prog := range progs {
			t.Run(cfgName+"/"+progName, func(t *testing.T) {
				checkMatchesReference(t, cfg, prog)
			})
		}
	}
}

// fuzzRegs is the small register set fuzzed programs draw from, so
// that they carry dependences; RegNone is an absent operand.
var fuzzRegs = [...]isa.Reg{
	isa.RegNone, isa.IntReg(0), isa.IntReg(1), isa.IntReg(2), isa.IntReg(3),
	isa.FPReg(0), isa.FPReg(1), isa.FPReg(2), isa.FPReg(3),
}

// fuzzProgram decodes four bytes per instruction (at most 400): class
// and code-layout jump, destination, two sources, and a data address
// with a branch direction.
func fuzzProgram(code []byte) []isa.Inst {
	n := min(len(code)/4, 400)
	prog := make([]isa.Inst, n)
	pc := uint64(0)
	for i := range prog {
		b := code[4*i : 4*i+4]
		class := isa.Class(b[0]%8) + isa.IntALU
		pc += 4 + uint64(b[0]>>6)*uint64(b[1]>>4)<<12 // far jumps miss the icache
		in := isa.Inst{
			PC:    pc,
			Class: class,
			Src1:  fuzzRegs[b[2]%9],
			Src2:  fuzzRegs[b[2]/9%9],
			Addr:  uint64(b[3]) << (b[3] % 4 * 6),
			Taken: b[3]&1 == 1,
		}
		if class != isa.Store && class != isa.Branch {
			in.Dest = fuzzRegs[b[1]%9]
		}
		prog[i] = in
	}
	return prog
}

// fuzzConfig derives a configuration within Config.Validate's bounds,
// one knob byte per field in order; fields without a byte keep their
// Table 1 values. Ranges stay small so that every resource can bind.
func fuzzConfig(knobs []byte) Config {
	cfg := DefaultConfig()
	fields := []struct {
		field   *int
		lo, num int
	}{
		{&cfg.FetchWidth, 1, 8},
		{&cfg.FetchQueueSize, 1, 32},
		{&cfg.DispatchWidth, 1, 6},
		{&cfg.RetireWidth, 1, 6},
		{&cfg.ROBSize, 1, 64},
		{&cfg.IntRenameRegs, 33, 16},
		{&cfg.FPRenameRegs, 33, 16},
		{&cfg.RegFileEntries, 1, 256},
		{&cfg.MemQueueSize, 1, 16},
		{&cfg.IntUnits, 1, 3},
		{&cfg.FPUnits, 1, 3},
		{&cfg.LSUnits, 1, 3},
		{&cfg.BrUnits, 1, 2},
		{&cfg.IntALULatency, 1, 4},
		{&cfg.IntMulLatency, 1, 8},
		{&cfg.IntDivLatency, 1, 40},
		{&cfg.FPLatency, 1, 8},
		{&cfg.FPDivLatency, 1, 32},
		{&cfg.BranchLatency, 1, 4},
		{&cfg.StoreLatency, 1, 4},
		{&cfg.PredictorBits, 1, 12},
		{&cfg.Mem.L1D.LatencyCycles, 0, 4}, // 0: a load's consumer may issue the same cycle
		{&cfg.Mem.L1I.LatencyCycles, 0, 4},
		{&cfg.Mem.L2.LatencyCycles, 1, 20},
		{&cfg.Mem.MemLatencyCycles, 1, 100},
		{&cfg.Mem.DTLB.Entries, 1, 8},
		{&cfg.Mem.DTLB.MissPenaltyCycles, 0, 40},
		{&cfg.Mem.ITLB.Entries, 1, 8},
		{&cfg.Mem.ITLB.MissPenaltyCycles, 0, 40},
	}
	for i, f := range fields {
		if i < len(knobs) {
			*f.field = f.lo + int(knobs[i])%f.num
		}
	}
	return cfg
}

// FuzzSimulatorMatchesReference compares Run with referenceRun on short
// random programs and random configurations. Its committed seeds
// (testdata/fuzz) cover the Table 1 machine, a machine of one of
// everything, zero-latency loads, icache and TLB misses on every
// instruction, and unpipelined divides on one unit.
func FuzzSimulatorMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, knobs, code []byte) {
		prog := fuzzProgram(code)
		if len(prog) == 0 {
			return
		}
		checkMatchesReference(t, fuzzConfig(knobs), prog)
	})
}
