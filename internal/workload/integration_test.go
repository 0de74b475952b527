package workload_test

import (
	"testing"

	"github.com/soferr/soferr/internal/turandot"
	"github.com/soferr/soferr/internal/workload"
)

// simulate runs one benchmark through the Table 1 machine.
func simulate(t *testing.T, name string, n int) *turandot.Result {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Generate(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := turandot.New(turandot.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIntBenchmarkUtilization(t *testing.T) {
	// An integer benchmark must exercise the integer unit far more than
	// the FP unit (Section 4.1's masking traces depend on this contrast).
	res := simulate(t, "gzip", 60000)
	traces := res.Traces
	if traces.Int.AVF() < 0.05 {
		t.Errorf("gzip integer AVF = %v, implausibly idle", traces.Int.AVF())
	}
	if traces.FP.AVF() > traces.Int.AVF()/2 {
		t.Errorf("gzip FP AVF %v not well below int AVF %v", traces.FP.AVF(), traces.Int.AVF())
	}
	if traces.Decode.AVF() <= 0 || traces.Decode.AVF() > 1 {
		t.Errorf("decode AVF = %v", traces.Decode.AVF())
	}
	if traces.RegFile.AVF() <= 0 || traces.RegFile.AVF() > 1 {
		t.Errorf("regfile AVF = %v", traces.RegFile.AVF())
	}
}

func TestFPBenchmarkUtilization(t *testing.T) {
	res := simulate(t, "swim", 60000)
	traces := res.Traces
	if traces.FP.AVF() < 0.10 {
		t.Errorf("swim FP AVF = %v, implausibly idle", traces.FP.AVF())
	}
	if traces.FP.AVF() <= traces.Int.AVF()/2 {
		t.Errorf("swim FP AVF %v should rival int AVF %v", traces.FP.AVF(), traces.Int.AVF())
	}
}

func TestMemoryBoundVsComputeBound(t *testing.T) {
	// mcf (huge random footprint) must achieve clearly lower IPC than
	// gzip (small strided footprint).
	mcf := simulate(t, "mcf", 40000)
	gzip := simulate(t, "gzip", 40000)
	if mcf.Stats.IPC() >= gzip.Stats.IPC() {
		t.Errorf("mcf IPC %v >= gzip IPC %v — memory behaviour not differentiating",
			mcf.Stats.IPC(), gzip.Stats.IPC())
	}
	if mcf.Stats.L2Misses < gzip.Stats.L2Misses {
		t.Errorf("mcf L2 misses %d < gzip %d", mcf.Stats.L2Misses, gzip.Stats.L2Misses)
	}
}

func TestBranchyVsRegular(t *testing.T) {
	// gcc (30% unpredictable branches) must mispredict more than swim
	// (2% unpredictable, strongly biased).
	gcc := simulate(t, "gcc", 40000)
	swim := simulate(t, "swim", 40000)
	if gcc.Stats.MispredictRate() <= swim.Stats.MispredictRate() {
		t.Errorf("gcc mispredict rate %v <= swim %v",
			gcc.Stats.MispredictRate(), swim.Stats.MispredictRate())
	}
}

func TestAllBenchmarksRunAndProduceTraces(t *testing.T) {
	for _, p := range workload.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			res := simulate(t, p.Name, 20000)
			if res.Stats.Retired != 20000 {
				t.Fatalf("retired %d/20000", res.Stats.Retired)
			}
			if ipc := res.Stats.IPC(); ipc < 0.02 || ipc > 5 {
				t.Errorf("IPC = %v implausible", ipc)
			}
			traces := res.Traces
			for name, avf := range map[string]float64{
				"decode": traces.Decode.AVF(),
				"int":    traces.Int.AVF(),
				"fp":     traces.FP.AVF(),
				"reg":    traces.RegFile.AVF(),
			} {
				if avf < 0 || avf > 1 {
					t.Errorf("%s AVF = %v", name, avf)
				}
			}
		})
	}
}
