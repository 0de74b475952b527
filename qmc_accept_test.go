// Non-short acceptance tests for the QMC sampler, run on the paper's
// SPEC-trace profile (the gzip integer-unit trace at 1e6 errors/year).
package soferr_test

import (
	"context"
	"math"
	"testing"

	"github.com/soferr/soferr"
)

// TestQMCTrialsToTargetHalved is the QMC acceptance criterion: on the
// SPEC-trace profile, the adaptive loop under the scrambled-Sobol
// sampler must reach the 1% relative-standard-error target in at most
// half the trials the PCG sampler needs (`soferr run <spec>
// -target-rse 0.01 -sampler pcg|sobol -json` prints both counts).
func TestQMCTrialsToTargetHalved(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark simulation skipped in -short mode")
	}
	res, err := soferr.SimulateBenchmark("gzip", 50000, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := soferr.NewSystem([]soferr.Component{
		{Name: "int", RatePerYear: 1e6, Trace: res.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	const target = 0.01
	ctx := context.Background()
	run := func(s soferr.Sampler) soferr.Estimate {
		est, err := sys.MTTF(ctx, soferr.MonteCarlo,
			soferr.WithSeed(1), soferr.WithEngine(soferr.Fused),
			soferr.WithSampler(s), soferr.WithTargetRelStdErr(target))
		if err != nil {
			t.Fatal(err)
		}
		if est.RelStdErr() > target {
			t.Errorf("%v run stopped at RSE %v > target %v", s, est.RelStdErr(), target)
		}
		return est
	}
	pcg := run(soferr.PCG)
	sobol := run(soferr.Sobol)
	if pcg.Trials >= soferr.DefaultTrials {
		t.Fatalf("PCG did not converge below the trial cap (%d); the profile no longer exercises the adaptive loop", pcg.Trials)
	}
	if 2*sobol.Trials > pcg.Trials {
		t.Errorf("Sobol needed %d trials to RSE<=%v, PCG %d: want Sobol <= half of PCG",
			sobol.Trials, target, pcg.Trials)
	}
	// The two samplers estimate the same quantity: agreement within the
	// combined error bars guards against a QMC stderr that is small
	// because it is wrong.
	if diff, bound := math.Abs(pcg.MTTF-sobol.MTTF), 5*(pcg.StdErr+sobol.StdErr); diff > bound {
		t.Errorf("pcg %v vs sobol %v (|diff| %v > %v)", pcg.MTTF, sobol.MTTF, diff, bound)
	}
}
