package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/avf"
	"github.com/soferr/soferr/internal/design"
	"github.com/soferr/soferr/internal/sofr"
	"github.com/soferr/soferr/internal/units"
	"github.com/soferr/soferr/internal/workload"
)

// sec51Benchmarks returns the benchmark set for the Section 5.1
// validation: all 21 by default, 3 representatives in quick mode.
func (r *Runner) sec51Benchmarks() []string {
	if r.opt.Quick {
		return []string{"gzip", "swim", "mcf"}
	}
	return workload.Names()
}

// Sec51 reproduces Section 5.1: for today's uniprocessors running SPEC,
// both the AVF step (per component) and the SOFR step (whole processor)
// agree with Monte Carlo to within sampling noise (<0.5% in the paper's
// 1M-trial runs).
func (r *Runner) Sec51(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "sec51",
		Title: "AVF+SOFR vs Monte Carlo: uniprocessor running SPEC (Section 5.1)",
		Header: []string{
			"benchmark", "component", "AVF", "rate/yr",
			"MC MTTF", "AVF MTTF", "rel err",
		},
	}
	comps := []struct {
		name   string
		unit   string
		ratePY float64
	}{
		{"integer", soferr.UnitInt, design.IntUnitRatePerYear},
		{"fp", soferr.UnitFP, design.FPUnitRatePerYear},
		{"decode", soferr.UnitDecode, design.DecodeUnitRatePerYear},
		{"regfile", soferr.UnitRegFile, design.RegFileRatePerYear},
	}
	worst := 0.0
	worstSOFR := 0.0
	for _, b := range r.sec51Benchmarks() {
		var (
			procComponents []soferr.Component
			mttfsForSOFR   []float64
		)
		for _, c := range comps {
			mask, err := r.benchmarkTrace(b, c.unit)
			if err != nil {
				return nil, err
			}
			rate := units.PerYearToPerSecond(c.ratePY)
			avfVal := mask.AVF()
			avfMTTF, err := avf.MTTF(rate, avfVal)
			if err != nil {
				return nil, err
			}
			if avfVal == 0 {
				// Component never vulnerable under this workload: both
				// methods agree on an infinite MTTF.
				t.AddRow(b, c.name, "0.000", fmtSci(c.ratePY), "inf", "inf", "+0.0%")
				continue
			}
			r.logf("sec51: %s/%s", b, c.name)
			mc, err := r.mcMTTF(ctx, c.ratePY, mask, hash51(b, c.name))
			if err != nil {
				return nil, err
			}
			rel := (avfMTTF - mc.MTTF) / mc.MTTF
			worst = math.Max(worst, math.Abs(rel))
			t.AddRow(b, c.name,
				fmt.Sprintf("%.3f", avfVal), fmtSci(c.ratePY),
				fmtSeconds(mc.MTTF), fmtSeconds(avfMTTF), fmtPct(rel))
			procComponents = append(procComponents, soferr.Component{
				Name: c.name, RatePerYear: c.ratePY, Trace: mask,
			})
			mttfsForSOFR = append(mttfsForSOFR, mc.MTTF)
		}
		// Whole-processor SOFR vs whole-processor Monte Carlo, both
		// against one compiled processor System.
		sofrMTTF, err := sofr.SystemMTTF(mttfsForSOFR)
		if err != nil {
			return nil, err
		}
		proc, err := soferr.NewSystem(procComponents, soferr.WithName(b+" processor"))
		if err != nil {
			return nil, err
		}
		sys, err := proc.MTTF(ctx, soferr.MonteCarlo, r.mcOpts(hash51(b, "system"))...)
		if err != nil {
			return nil, err
		}
		rel := (sofrMTTF - sys.MTTF) / sys.MTTF
		worstSOFR = math.Max(worstSOFR, math.Abs(rel))
		t.AddRow(b, "processor (SOFR)", "-", "-",
			fmtSeconds(sys.MTTF), fmtSeconds(sofrMTTF), fmtPct(rel))
		t.AddEstimates(b+" processor", sys)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("worst AVF-step |err| = %.2f%%, worst SOFR-step |err| = %.2f%%", 100*worst, 100*worstSOFR),
		fmt.Sprintf("paper: <0.5%% at 1e6 trials; at %d trials the MC standard error alone is ~%.2f%%",
			r.opt.Trials, 100/math.Sqrt(float64(r.opt.Trials))))
	return t, nil
}

// hash51 derives a deterministic seed salt for a (benchmark, component)
// pair.
func hash51(b, c string) uint64 {
	h := uint64(1469598103934665603)
	for _, s := range []string{b, "/", c} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return h
}
