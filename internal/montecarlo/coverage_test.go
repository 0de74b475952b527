package montecarlo

import (
	"context"
	"math"
	"testing"

	"github.com/soferr/soferr/internal/trace"
)

// hourlyMergedSystem is the merged shape of the served adaptive
// workload: a 4-interval hourly loop beside a two-hour busy/idle loop
// at a few thousand raw errors per year, so the time to failure spans
// several hours and the merged table holds well over 8 segments.
func hourlyMergedSystem(t *testing.T) []Component {
	t.Helper()
	const perYear = 1 / (365.25 * 86400)
	hourly, err := trace.Periodic(3600, []trace.Interval{
		{Start: 300, End: 600}, {Start: 900, End: 1500}, {Start: 2100, End: 2400}, {Start: 2880, End: 3300},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []Component{
		{Name: "hourly", Rate: 3e3 * perYear, Trace: hourly},
		{Name: "two-hour", Rate: 2e3 * perYear, Trace: busyIdle(t, 7200, 1080)},
	}
}

// TestSobolStdErrCoversExact checks the error bar of every sampled
// answer on merged systems, not just its point estimate. There the
// Exact engine is ground truth, so over many seeds z = (MTTF -
// ExactMTTF)/StdErr must behave like a standard normal: its ±1.96σ
// coverage near 0.95 and no |z| far in the tail. Three runs per shape:
//
//   - the default adaptive 1% run, which resolves to Sobol. Replicate
//     means are right-skewed, and with few replicates a low estimate
//     arrives with a low spread: at 8 replicates these shapes covered
//     0.885–0.895 with |z| up to 108, which this test refuses;
//   - PCG adaptive at 1%. Every seed stops at 16,384 trials, and the
//     adaptive rounds draw the trials a fixed run of that count draws,
//     so this is the fixed 16,384-trial PCG check too;
//   - Sobol at a fixed 16,384 trials.
func TestSobolStdErrCoversExact(t *testing.T) {
	if testing.Short() {
		t.Skip("2,000 runs per shape and sampler skipped in -short mode")
	}
	const (
		seeds  = 2000
		target = 0.01
		trials = 16384
		// A calibrated stderr covers with probability 0.95; over 2,000
		// seeds the binomial sd of the coverage is
		// sqrt(0.95*0.05/2000) = 0.0049, and the band is ±4 sd.
		coverLo, coverHi = 0.95 - 4*0.0049, 0.95 + 4*0.0049
		// P(|z| > 5) is 5.7e-7 for a standard normal, so 2,000 seeds
		// pass a calibrated stderr with probability 0.999.
		maxAbsZ = 5.0
	)
	ctx := context.Background()
	for _, shape := range []struct {
		name  string
		comps []Component
	}{
		{"hourly merged", hourlyMergedSystem(t)},
		{"fusedTestSystem", fusedTestSystem(t)},
	} {
		c := mustCompile(t, shape.comps)
		exact, err := c.ExactMTTF()
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name string
			cfg  Config
			want Sampler
			// trials, when positive, is the count every seed must end at.
			trials int
		}{
			{"adaptive default", Config{TargetRelStdErr: target}, Sobol, 0},
			{"adaptive pcg", Config{TargetRelStdErr: target, Sampler: PCG}, PCG, trials},
			{"fixed sobol", Config{Trials: trials, Sampler: Sobol}, Sobol, trials},
		} {
			t.Run(shape.name+"/"+run.name, func(t *testing.T) {
				covered, worst := 0, 0.0
				for seed := uint64(1); seed <= seeds; seed++ {
					cfg := run.cfg
					cfg.Seed, cfg.Workers = seed, 1
					res, err := c.MTTF(ctx, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Sampler != run.want {
						t.Fatalf("ran %v, want %v", res.Sampler, run.want)
					}
					if run.trials > 0 && res.Trials != run.trials {
						t.Fatalf("seed %d: %d trials, want %d", seed, res.Trials, run.trials)
					}
					z := (res.MTTF - exact) / res.StdErr
					if math.Abs(z) <= 1.96 {
						covered++
					}
					worst = max(worst, math.Abs(z))
				}
				coverage := float64(covered) / seeds
				t.Logf("±1.96σ coverage %.4f, max |z| %.2f over %d seeds", coverage, worst, seeds)
				if coverage < coverLo || coverage > coverHi {
					t.Errorf("±1.96σ coverage %.4f outside [%.4f, %.4f]", coverage, coverLo, coverHi)
				}
				if worst > maxAbsZ {
					t.Errorf("max |z| = %.2f > %v", worst, maxAbsZ)
				}
			})
		}
	}
}
