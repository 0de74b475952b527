package montecarlo

import (
	"context"
	"testing"

	"github.com/soferr/soferr/internal/trace"
)

// TestBatchedBitIdenticalToScalar is the batched kernel's determinism
// contract: for the PCG sampler, every batch size — including the
// default — produces bit-identical estimates to the scalar oracle
// (BatchSize 1), for fixed runs, adaptive runs, raw sample collection,
// and every worker count. Per-trial draws come from per-trial reseeded
// streams, so batching can only reorder the merged-table lookups, never
// the values.
func TestBatchedBitIdenticalToScalar(t *testing.T) {
	comps := fusedTestSystem(t)
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const trials = 3*trialBlock + 123
	scalar, err := c.MTTF(ctx, Config{Trials: trials, Seed: 11, Engine: Fused, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	scalarSamples, err := c.TTFSamples(ctx, Config{Trials: 2 * trialBlock, Seed: 11, Engine: Fused, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	scalarAdaptive, err := c.MTTF(ctx, Config{Trials: 4 * trialBlock, Seed: 11, Engine: Fused, BatchSize: 1, TargetRelStdErr: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for _, bsz := range []int{0, 2, 7, 16, 64, 256, trialBlock, 10 * trialBlock} {
		for _, workers := range []int{1, 3, 8} {
			cfg := Config{Trials: trials, Seed: 11, Engine: Fused, BatchSize: bsz, Workers: workers}
			got, err := c.MTTF(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != scalar {
				t.Errorf("BatchSize=%d Workers=%d: %+v != scalar %+v", bsz, workers, got, scalar)
			}
		}
		samples, err := c.TTFSamples(ctx, Config{Trials: 2 * trialBlock, Seed: 11, Engine: Fused, BatchSize: bsz})
		if err != nil {
			t.Fatal(err)
		}
		for i := range samples {
			if samples[i] != scalarSamples[i] {
				t.Fatalf("BatchSize=%d: sample %d differs (%v vs %v)", bsz, i, samples[i], scalarSamples[i])
			}
		}
		adaptive, err := c.MTTF(ctx, Config{Trials: 4 * trialBlock, Seed: 11, Engine: Fused, BatchSize: bsz, TargetRelStdErr: 1e-9, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if adaptive != scalarAdaptive {
			t.Errorf("BatchSize=%d adaptive: %+v != scalar %+v", bsz, adaptive, scalarAdaptive)
		}
	}
}

// TestBatchedDegradedFusedFallsBackToScalar: a fused state without a
// merged table (incommensurate periods) or with thinning components is
// not batchable, and the run must silently use the scalar kernel and
// stay bit-identical to the scalar per-component path (the degraded
// contract), whatever BatchSize says.
func TestBatchedDegradedFusedFallsBackToScalar(t *testing.T) {
	comps := []Component{
		{Name: "a", Rate: 0.05, Trace: busyIdle(t, 1.0, 0.5)},
		{Name: "b", Rate: 0.02, Trace: busyIdle(t, 1.0/3.0, 0.1)},
	}
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	if c.fusedState().batchable() {
		t.Skip("expected an unmergeable system for this test")
	}
	ctx := context.Background()
	inv, err := c.MTTF(ctx, Config{Trials: trialBlock, Seed: 5, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := c.MTTF(ctx, Config{Trials: trialBlock, Seed: 5, Engine: Fused, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if fused != inv {
		t.Errorf("degraded fused with BatchSize=256 = %+v, want scalar-identical %+v", fused, inv)
	}
}

// TestBatchedInvalidBatchSize: negative sizes are a configuration
// error, not a silent fallback.
func TestBatchedInvalidBatchSize(t *testing.T) {
	c, err := Compile(fusedTestSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.MTTF(context.Background(), Config{Trials: 64, Engine: Fused, BatchSize: -1}); err == nil {
		t.Fatal("want error for negative BatchSize")
	}
}

// TestBatchedOtherEnginesIgnoreBatchSize: the batch kernel only exists
// for the Fused engine's merged table; the Exact engine runs no trials
// and must return its usual result for any BatchSize.
func TestBatchedOtherEnginesIgnoreBatchSize(t *testing.T) {
	comps := fusedTestSystem(t)
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plain, err := c.MTTF(ctx, Config{Engine: Exact})
	if err != nil {
		t.Fatal(err)
	}
	for _, bsz := range []int{1, 128} {
		batched, err := c.MTTF(ctx, Config{Engine: Exact, BatchSize: bsz})
		if err != nil {
			t.Fatal(err)
		}
		if plain != batched {
			t.Errorf("BatchSize=%d changed the exact result (%+v vs %+v)", bsz, plain, batched)
		}
	}
}

// opaqueTrace wraps a Piecewise but hides its exposure table: it
// satisfies trace.Trace and nothing else, forcing the engines onto the
// literal thinning fallback — the situation the batch kernel and the
// Sobol sampler must detect and refuse.
type opaqueTrace struct{ p *trace.Piecewise }

func (o opaqueTrace) Period() float64          { return o.p.Period() }
func (o opaqueTrace) AVF() float64             { return o.p.AVF() }
func (o opaqueTrace) VulnAt(t float64) float64 { return o.p.VulnAt(t) }
func (o opaqueTrace) SurvivalIntegral(rate float64) (float64, float64) {
	return o.p.SurvivalIntegral(rate)
}

// TestBatchedWithThinningComponentFallsBack: a mergeable subsystem plus
// a thinning component keeps the merged table but must refuse the
// batch kernel — thinning consumes a cutoff-dependent number of draws
// — and stay bit-identical to the scalar fused path.
func TestBatchedWithThinningComponentFallsBack(t *testing.T) {
	comps := append(fusedTestSystem(t), Component{Name: "opaque", Rate: 0.05, Trace: opaqueTrace{p: busyIdle(t, 1e-3, 0.5e-3)}})
	c, err := Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	fs := c.fusedState()
	if fs.merged == nil {
		t.Fatal("expected a merged table alongside the lazy component")
	}
	if fs.batchable() {
		t.Fatal("thinning component must disqualify the batch kernel")
	}
	ctx := context.Background()
	scalar, err := c.MTTF(ctx, Config{Trials: trialBlock, Seed: 13, Engine: Fused, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := c.MTTF(ctx, Config{Trials: trialBlock, Seed: 13, Engine: Fused, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if scalar != batched {
		t.Errorf("thinning fallback: %+v != %+v", batched, scalar)
	}
}

// TestDefaultBatchGateBySegments pins the table-size gate on the
// default batch kernel: tiny merged tables (where a binary search is
// one or two comparisons) stay scalar under BatchSize 0, an explicit
// BatchSize always forces the batch kernel, and the shared test system
// is big enough that the default matrix above really exercises it.
func TestDefaultBatchGateBySegments(t *testing.T) {
	tiny, err := Compile([]Component{{Name: "a", Rate: 0.05, Trace: busyIdle(t, 24, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if n := tiny.fusedState().merged.NumSegments(); n >= minBatchSegments {
		t.Fatalf("tiny system has %d merged segments, want < %d", n, minBatchSegments)
	}
	br, err := tiny.newBlockRunner(Config{Engine: Fused})
	if err != nil {
		t.Fatal(err)
	}
	if br.newBatch != nil {
		t.Error("default config batches a tiny merged table; the argsort costs more than the searches it replaces")
	}
	br, err = tiny.newBlockRunner(Config{Engine: Fused, BatchSize: DefaultBatchSize})
	if err != nil {
		t.Fatal(err)
	}
	if br.newBatch == nil {
		t.Error("explicit BatchSize did not bypass the segment gate")
	}

	big, err := Compile(fusedTestSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	if n := big.fusedState().merged.NumSegments(); n < minBatchSegments {
		t.Fatalf("fusedTestSystem has only %d merged segments; the bit-identity matrix would no longer cover the default batch path", n)
	}
	br, err = big.newBlockRunner(Config{Engine: Fused})
	if err != nil {
		t.Fatal(err)
	}
	if br.newBatch == nil {
		t.Error("default config does not batch a segment-rich merged table")
	}
}
