package montecarlo

import (
	"errors"
	"fmt"
	"strings"

	"github.com/soferr/soferr/internal/xrand"
)

// Sampler selects the uniform source feeding the trial kernels.
type Sampler int

const (
	// DefaultSampler is the zero Sampler: it names no source, and each
	// Fused run resolves it to one. It resolves to Sobol when the run is
	// adaptive (Config.TargetRelStdErr > 0), its trial cap is at least
	// trialBlock (so every replicate holds at least 16 points), and
	// every draw of a trial has a Sobol dimension (no PCG padding past
	// xrand.MaxSobolDims); otherwise to PCG.
	// Fixed-trial runs therefore keep their PCG streams. Result.Sampler
	// names the sampler that ran, never DefaultSampler.
	DefaultSampler Sampler = iota
	// PCG is the pseudo-random sampler: every trial draws from its own
	// reseeded PCG stream derived from (Config.Seed, trial index). Works
	// on every system; converges at the Monte-Carlo 1/sqrt(n) rate.
	PCG
	// Sobol replaces the per-trial uniforms with coordinates of an
	// Owen-scrambled Sobol low-discrepancy sequence, so the closed-form
	// inversion kernels integrate over a point set with vanishing
	// discrepancy and converge at nearly 1/n instead of 1/sqrt(n).
	//
	// The Fused kernel qualifies because it consumes a fixed number of
	// uniforms per trial (two per closed-form inversion), so trial i can
	// be assigned point i of a fixed-dimension sequence. Trials are
	// striped across qmcReplicates independently scrambled copies of
	// the sequence, so the reported standard error is the honest spread
	// of independent replicate estimates rather than the iid formula
	// QMC invalidates.
	Sobol
)

// String returns the sampler's CLI name: the empty name for
// DefaultSampler, as the CLI and the wire spell it.
func (s Sampler) String() string {
	switch s {
	case DefaultSampler:
		return ""
	case PCG:
		return "pcg"
	case Sobol:
		return "sobol"
	default:
		return fmt.Sprintf("Sampler(%d)", int(s))
	}
}

// ErrUnknownSampler tags a name SamplerByName cannot parse, so a
// decoder can tell an unknown sampler from other malformed input.
var ErrUnknownSampler = errors.New("montecarlo: unknown sampler")

// SamplerByName parses a CLI sampler name, case-insensitively. The
// empty string is DefaultSampler.
func SamplerByName(name string) (Sampler, error) {
	switch strings.ToLower(name) {
	case "":
		return DefaultSampler, nil
	case "pcg":
		return PCG, nil
	case "sobol":
		return Sobol, nil
	default:
		return 0, fmt.Errorf("%w %q (want pcg or sobol)", ErrUnknownSampler, name)
	}
}

// MarshalText encodes the sampler by its CLI name, so JSON documents
// and flag defaults spell samplers as SamplerByName reads them.
func (s Sampler) MarshalText() ([]byte, error) {
	name := s.String()
	if _, err := SamplerByName(name); err != nil {
		return nil, err
	}
	return []byte(name), nil
}

// UnmarshalText parses a sampler name with SamplerByName; the empty
// name is DefaultSampler.
func (s *Sampler) UnmarshalText(text []byte) error {
	v, err := SamplerByName(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// qmcReplicates is the number of independently scrambled Sobol
// replicates a QMC run stripes its trials across. It divides trialBlock
// so every block — and therefore every adaptive round boundary — is
// replicate-aligned: each replicate always holds a prefix of its own
// sequence, which keeps adaptive runs bit-identical to fixed runs of
// the same length.
//
// The count sets how honest the reported standard error is. Replicate
// means are right-skewed: a replicate's longest failure time comes from
// its single point in the lowest stratum of the Exp(1) coordinate, so a
// low mean arrives with a low spread, and that skew shrinks only as
// about 2/sqrt(qmcReplicates). At 8 replicates the ±1.96σ coverage of
// adaptive 1% runs measured 0.885–0.895 against the Exact engine, with
// |z| up to 108; at 256 it measured 0.94–0.95 with |z| at most 3.8
// (TestSobolStdErrCoversExact; DESIGN.md has the full table). At the
// first adaptive round, trialBlock trials, each replicate holds 16
// points.
const qmcReplicates = 256

// qmcState is the per-run Sobol configuration: the scrambled replicate
// sequences (immutable, shared by all workers) and the number of
// coordinates one trial consumes.
type qmcState struct {
	seqs []xrand.ScrambledSobol
	dims int
}

// newQMCState builds the scrambled replicates for trials of dims
// uniforms each. When dims exceeds xrand.MaxSobolDims the trailing draws
// are padded from the per-trial PCG stream (still deterministic, and
// the leading — most variance-carrying — draws keep the
// low-discrepancy structure).
func newQMCState(seed uint64, dims int) (*qmcState, error) {
	if dims > xrand.MaxSobolDims {
		dims = xrand.MaxSobolDims
	}
	sobol, err := xrand.NewSobol(dims)
	if err != nil {
		return nil, err
	}
	// One value slice of replicates and one slab of their scramble keys:
	// setup costs a handful of allocations, not two per replicate.
	qs := &qmcState{dims: dims, seqs: make([]xrand.ScrambledSobol, qmcReplicates)}
	keys := make([]uint32, qmcReplicates*dims)
	for r := range qs.seqs {
		// Any injective (seed, replicate) -> scramble-key map works; the
		// odd multipliers keep distinct replicates on distinct keys for
		// every seed.
		rseed := seed*0x9e3779b97f4a7c15 + uint64(r)*0xda942042e4dd58b5 + 0x6a09e667f3bcc909
		qs.seqs[r] = sobol.Scrambled(rseed, keys[r*dims:(r+1)*dims:(r+1)*dims])
	}
	return qs, nil
}

// drawSource is the per-worker uniform source handed to trial kernels.
// In PCG mode (seq nil) every draw delegates to the reseeded per-trial
// PCG stream — bit-identical to handing the kernel the *xrand.Rand
// directly, which is the determinism contract the conformance suites
// pin. In Sobol mode the first dims draws of each trial come from the
// trial's low-discrepancy point and any further draws fall back to the
// PCG stream (over-cap dimension padding).
type drawSource struct {
	rng  xrand.Rand
	seqs []xrand.ScrambledSobol // nil for PCG
	dims int
	di   int
	pt   [xrand.MaxSobolDims]float64
}

// initDrawSource prepares a worker-local draw source for the runner's
// sampler mode.
func (br *blockRunner) initDrawSource(ds *drawSource) {
	if br.qmc != nil {
		ds.seqs = br.qmc.seqs
		ds.dims = br.qmc.dims
	}
}

// beginTrial positions the source at the given absolute trial index:
// the PCG stream is reseeded to the trial's own substream (exactly
// reseedTrialStream), and in Sobol mode the trial's point is fetched —
// trial i maps to point i/K of replicate i%K, so replicate r sees the
// plain prefix of its own scrambled sequence.
//
//soferr:hotpath
func (ds *drawSource) beginTrial(seed uint64, trial int) {
	reseedTrialStream(&ds.rng, seed, uint64(trial))
	if ds.seqs != nil {
		k := len(ds.seqs)
		ds.seqs[trial%k].Point(uint64(trial/k), ds.pt[:ds.dims])
		ds.di = 0
	}
}

// Float64 returns the next uniform in [0, 1).
//
//soferr:hotpath
func (ds *drawSource) Float64() float64 {
	if ds.di < ds.dims {
		x := ds.pt[ds.di]
		ds.di++
		return x
	}
	return ds.rng.Float64()
}

// Float64Open returns the next uniform in (0, 1). Sobol coordinates
// are already offset off the grid and never hit 0 or 1, so in Sobol
// mode this is the same coordinate Float64 would return.
//
//soferr:hotpath
func (ds *drawSource) Float64Open() float64 {
	if ds.di < ds.dims {
		x := ds.pt[ds.di]
		ds.di++
		return x
	}
	return ds.rng.Float64Open()
}

// qmcTrialDims returns the fixed per-trial uniform draw count of the
// Fused kernel over this system: two for the merged table and two per
// component outside it, except where a per-period hazard underflowed to
// zero (those draws return +Inf without consuming a uniform).
func (fs *fusedState) qmcTrialDims() int {
	dims := 0
	if fs.merged != nil && fs.totalHaz > 0 {
		dims = 2
	}
	for i := range fs.rest {
		if fs.rest[i].perPeriodExposure > 0 {
			dims += 2
		}
	}
	return dims
}
