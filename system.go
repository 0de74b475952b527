package soferr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/soferr/soferr/internal/avf"
	"github.com/soferr/soferr/internal/montecarlo"
	"github.com/soferr/soferr/internal/sofr"
	"github.com/soferr/soferr/internal/units"
)

// Method selects an MTTF estimation method on a compiled System.
type Method int

const (
	// AVFSOFR is the industry-standard two-step shortcut: derate each
	// component's raw rate by its AVF (Equation 1), sum the derated
	// failure rates, and invert (Equations 2-3). Deterministic.
	AVFSOFR Method = iota + 1
	// MonteCarlo estimates the MTTF from first principles by sampling
	// raw-error arrivals against the masking traces (Section 4.3).
	// Stochastic: estimates carry a standard error, and equal seeds give
	// bit-identical results.
	MonteCarlo
	// SoftArch computes the same first-principles quantity in closed
	// form via the survival integral (Section 5.4). Deterministic. It
	// answers from the Exact engine's state, so its MTTF equals the
	// Exact engine's bit for bit, and it refuses with
	// ErrExactUnavailable exactly where the Exact engine does.
	SoftArch
)

// String returns the method's CLI/JSON name.
func (m Method) String() string {
	switch m {
	case AVFSOFR:
		return "avf+sofr"
	case MonteCarlo:
		return "montecarlo"
	case SoftArch:
		return "softarch"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// MethodByName parses a method name as printed by String (plus the
// aliases "avfsofr" and "mc"). Matching is case-insensitive, so the
// CLI flags, server request decoding, and JSON round-trips all accept
// "MC" or "MonteCarlo" as readily as "montecarlo".
func MethodByName(name string) (Method, error) {
	switch strings.ToLower(name) {
	case "avf+sofr", "avfsofr":
		return AVFSOFR, nil
	case "montecarlo", "mc":
		return MonteCarlo, nil
	case "softarch":
		return SoftArch, nil
	default:
		return 0, fmt.Errorf("soferr: unknown method %q (want avf+sofr, montecarlo, or softarch)", name)
	}
}

// EngineByName parses a Monte-Carlo engine name as printed by
// Engine.String, case-insensitively. It is the single name-parsing
// point shared by the CLI -engine flags and the server's request
// decoding.
func EngineByName(name string) (Engine, error) {
	return montecarlo.EngineByName(name)
}

// SamplerByName parses a sampler name as printed by Sampler.String,
// case-insensitively; the empty string is the PCG default. Like
// EngineByName it is the single name-parsing point shared by the CLI
// -sampler flags and the server's request decoding.
func SamplerByName(name string) (Sampler, error) {
	return montecarlo.SamplerByName(name)
}

// Methods returns all estimation methods in comparison order.
func Methods() []Method { return []Method{AVFSOFR, MonteCarlo, SoftArch} }

// DefaultTrials is the default Monte-Carlo trial count.
const DefaultTrials = montecarlo.DefaultTrials

// ErrNoFailurePossible is returned by sample-collecting Monte-Carlo
// runs on a system in which no component can ever fail (every rate or
// AVF is zero): such a system has no failure-time distribution to
// sample. MTTF queries no longer return it — every method, Monte-Carlo
// included, reports MTTF = +Inf with FIT = 0 for a never-failing
// system.
var ErrNoFailurePossible = montecarlo.ErrNoFailurePossible

// ErrInvalidArgument tags query errors caused by out-of-domain
// arguments (a negative time, a probability outside [0, 1]). Callers
// serving untrusted queries can errors.Is against it to distinguish
// caller mistakes from internal failures.
var ErrInvalidArgument = errors.New("invalid argument")

// Estimate is the unified result of one MTTF query: every method
// returns the same shape, so estimates from different methods (or
// different systems) compare directly.
type Estimate struct {
	// Method produced this estimate.
	Method Method
	// MTTF is the estimated mean time to failure in seconds (+Inf when
	// the system cannot fail).
	MTTF float64
	// FIT is the equivalent failure rate in failures per 1e9
	// device-hours (0 when the system cannot fail).
	FIT float64
	// StdErr is the standard error of the estimate in seconds; zero for
	// the deterministic methods.
	StdErr float64
	// Trials and Seed record the Monte-Carlo settings used; zero for
	// the deterministic methods.
	Trials int
	Seed   uint64
	// Engine is the Monte-Carlo trial implementation used. It is
	// meaningful only for MonteCarlo estimates: the deterministic
	// methods leave the zero value, and the JSON encoding omits it.
	Engine Engine
	// Sampler is the uniform-draw source the Monte-Carlo run used (PCG,
	// the zero value, unless WithSampler selected another). For Sobol
	// runs, Trials is still the effective trial count the estimate
	// averaged over — QMC points count one-for-one as trials.
	Sampler Sampler
	// TargetRelStdErr is the adaptive precision target the query asked
	// for (WithTargetRelStdErr); zero for fixed-trial runs. When set,
	// Trials records the trial count the adaptive run actually used and
	// StdErr the precision it achieved.
	TargetRelStdErr float64
	// Cached reports whether the estimate was served from the system's
	// query cache rather than recomputed. Cached Monte-Carlo estimates
	// are bit-identical to recomputation: equal seeds, trials, and
	// engine always produce equal results.
	Cached bool
}

// RelStdErr returns StdErr/MTTF: the relative precision of the
// estimate. Deterministic estimates (StdErr zero) return 0 even when
// the MTTF itself is zero or infinite.
func (e Estimate) RelStdErr() float64 {
	if e.StdErr == 0 {
		return 0
	}
	if math.IsInf(e.MTTF, 1) {
		return 0
	}
	return e.StdErr / e.MTTF
}

// MarshalJSON renders the estimate with stable string names for method
// and engine and JSON-safe encodings for non-finite floats ("+Inf",
// "NaN" as strings). UnmarshalJSON inverts it exactly:
// json.Unmarshal(json.Marshal(e)) reproduces every field.
func (e Estimate) MarshalJSON() ([]byte, error) {
	out := map[string]interface{}{
		"method":       e.Method.String(),
		"mttf_seconds": JSONFloat(e.MTTF),
		"fit":          JSONFloat(e.FIT),
	}
	if e.Method == MonteCarlo {
		out["stderr_seconds"] = JSONFloat(e.StdErr)
		out["trials"] = e.Trials
		out["seed"] = e.Seed
		out["engine"] = e.Engine.String()
		out["sampler"] = e.Sampler.String()
		out["cached"] = e.Cached
		if e.TargetRelStdErr != 0 {
			out["target_rel_stderr"] = JSONFloat(e.TargetRelStdErr)
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses the encoding produced by MarshalJSON: string
// method/engine names (case-insensitive) and "+Inf"/"-Inf"/"NaN"
// strings for non-finite floats. Fields absent from the document (the
// Monte-Carlo block is omitted for deterministic estimates) are left at
// their zero values, which is exactly what MarshalJSON elided.
func (e *Estimate) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		// Per encoding/json convention, unmarshaling null is a no-op.
		return nil
	}
	var raw struct {
		Method  string    `json:"method"`
		MTTF    JSONFloat `json:"mttf_seconds"`
		FIT     JSONFloat `json:"fit"`
		StdErr  JSONFloat `json:"stderr_seconds"`
		Trials  int       `json:"trials"`
		Seed    uint64    `json:"seed"`
		Engine  string    `json:"engine"`
		Sampler string    `json:"sampler"`
		Target  JSONFloat `json:"target_rel_stderr"`
		Cached  bool      `json:"cached"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	method, err := MethodByName(raw.Method)
	if err != nil {
		return err
	}
	var engine Engine
	if raw.Engine != "" {
		engine, err = EngineByName(raw.Engine)
		if err != nil {
			return err
		}
	}
	// SamplerByName treats the empty string as the PCG default, so
	// documents predating the sampler field decode unchanged.
	sampler, err := SamplerByName(raw.Sampler)
	if err != nil {
		return err
	}
	*e = Estimate{
		Method:          method,
		MTTF:            float64(raw.MTTF),
		FIT:             float64(raw.FIT),
		StdErr:          float64(raw.StdErr),
		Trials:          raw.Trials,
		Seed:            raw.Seed,
		Engine:          engine,
		Sampler:         sampler,
		TargetRelStdErr: float64(raw.Target),
		Cached:          raw.Cached,
	}
	return nil
}

// JSONFloat is a float64 that survives JSON: non-finite values marshal
// as the strings "+Inf", "-Inf", and "NaN" (encoding/json rejects them
// as bare numbers) and unmarshal from either form. The package's JSON
// surfaces (Estimate, the query server) use it for every field that can
// legitimately be infinite, like the MTTF of a system that cannot fail.
type JSONFloat float64

// MarshalJSON encodes finite values as numbers and non-finite values as
// quoted strings.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 1) {
		return []byte(`"+Inf"`), nil
	}
	if math.IsInf(v, -1) {
		return []byte(`"-Inf"`), nil
	}
	if math.IsNaN(v) {
		return []byte(`"NaN"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON accepts a JSON number or one of the strings emitted by
// MarshalJSON ("Inf" and "Infinity" spellings are accepted too).
func (f *JSONFloat) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) > 1 && s[0] == '"' {
		var str string
		if err := json.Unmarshal(data, &str); err != nil {
			return err
		}
		switch strings.ToLower(str) {
		case "+inf", "inf", "+infinity", "infinity":
			*f = JSONFloat(math.Inf(1))
		case "-inf", "-infinity":
			*f = JSONFloat(math.Inf(-1))
		case "nan":
			*f = JSONFloat(math.NaN())
		default:
			// Permit quoted finite numbers for symmetry with other
			// string-encoded JSON APIs.
			v, err := strconv.ParseFloat(str, 64)
			if err != nil {
				return fmt.Errorf("soferr: invalid float %q", str)
			}
			*f = JSONFloat(v)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// SystemOption configures NewSystem.
type SystemOption func(*systemConfig)

type systemConfig struct {
	name    string
	noCache bool
}

// WithName labels the system in error messages.
func WithName(name string) SystemOption {
	return func(c *systemConfig) { c.name = name }
}

// WithoutQueryCache disables memoization of query results. Queries are
// deterministic at fixed settings, so the cache is semantically
// transparent; disabling it is useful only for benchmarking the
// underlying estimators.
func WithoutQueryCache() SystemOption {
	return func(c *systemConfig) { c.noCache = true }
}

// EstimateOption tunes one MTTF/Compare query. Zero or unset values
// mean defaults, so options can be threaded through unconditionally.
type EstimateOption func(*estimateSettings)

type estimateSettings struct {
	trials    int
	seed      uint64
	engine    Engine
	sampler   Sampler
	workers   int
	timeLimit time.Duration
	targetRSE float64
}

// WithTrials sets the Monte-Carlo trial count (default DefaultTrials).
func WithTrials(n int) EstimateOption {
	return func(s *estimateSettings) { s.trials = n }
}

// WithSeed selects the deterministic random stream; equal seeds (with
// equal trials and engine) give bit-identical estimates.
func WithSeed(seed uint64) EstimateOption {
	return func(s *estimateSettings) { s.seed = seed }
}

// WithEngine selects the Monte-Carlo trial implementation: Fused (the
// default) samples, Exact gives the trial-free closed-form answer with
// zero standard error.
func WithEngine(e Engine) EstimateOption {
	return func(s *estimateSettings) { s.engine = e }
}

// WithSampler selects the Monte-Carlo uniform-draw source (default
// PCG). Sobol switches the Fused engine to Owen-scrambled
// quasi-Monte-Carlo points: variance falls near O(1/n) instead of
// O(1/sqrt n), so adaptive precision targets are reached in far fewer
// trials. Systems with thinning-fallback components reject Sobol with
// ErrSamplerUnsupported; the Exact engine ignores samplers entirely.
func WithSampler(s Sampler) EstimateOption {
	return func(set *estimateSettings) { set.sampler = s }
}

// WithWorkers bounds Monte-Carlo parallelism (default GOMAXPROCS).
// Worker count never changes the estimate, only the wall time.
func WithWorkers(n int) EstimateOption {
	return func(s *estimateSettings) { s.workers = n }
}

// WithTimeLimit bounds the query's wall time: the query's context is
// cancelled after d, and an over-budget Monte-Carlo run returns
// context.DeadlineExceeded.
func WithTimeLimit(d time.Duration) EstimateOption {
	return func(s *estimateSettings) { s.timeLimit = d }
}

// WithTargetRelStdErr switches a Monte-Carlo query to adaptive
// precision targeting: trials run in deterministic doubling rounds
// until the relative standard error (StdErr/MTTF) reaches target, the
// trial cap (WithTrials, default DefaultTrials) stops it, or the
// query's context ends. Adaptive estimates are bit-identical for any
// worker count, record the trials actually used in Estimate.Trials,
// and carry the target in Estimate.TargetRelStdErr. A target of zero
// means a fixed-trial run; targets outside [0, 1) are rejected with
// ErrInvalidArgument.
func WithTargetRelStdErr(target float64) EstimateOption {
	return func(s *estimateSettings) { s.targetRSE = target }
}

// System is an immutable, precompiled series system: NewSystem
// validates the components once, converts units, and precomputes the
// state every estimator shares — per-second rates, per-component AVF
// MTTFs, and the compiled Monte-Carlo system. Its Exact-engine state,
// built by the first query that needs it, is the one closed-form
// integrator: it answers the Exact engine, SoftArch, Reliability, and
// FailureQuantile alike.
// All queries are safe for concurrent use, and deterministic queries
// (plus seeded Monte-Carlo runs, which are deterministic too) are
// memoized, so a long-lived System answers repeated traffic at
// cache-hit cost.
type System struct {
	name       string
	components []Component
	noCache    bool

	mc *montecarlo.Compiled

	// avfSofr is the precomputed AVF+SOFR estimate (deterministic).
	avfSofr float64
	avfErr  error

	mcCache     sync.Map // mcCacheKey -> Estimate
	mcCacheSize atomic.Int64
}

// maxCachedEstimates bounds the Monte-Carlo query cache. A serving
// System fed per-request seeds or trial counts would otherwise grow one
// Estimate per distinct setting forever; past the cap, results are
// still computed and returned, just not retained.
const maxCachedEstimates = 4096

type mcCacheKey struct {
	trials    int
	seed      uint64
	engine    Engine
	sampler   Sampler
	targetRSE float64
}

// NewSystem compiles components into an immutable System. It validates
// every component (non-nil trace, finite non-negative rate) and
// precomputes everything the estimators share; afterwards every query
// runs against read-only state. Components that can never fail (zero
// rate or zero AVF) are legal: if nothing can fail, every method —
// Monte-Carlo included — reports MTTF = +Inf with FIT = 0.
func NewSystem(components []Component, opts ...SystemOption) (*System, error) {
	var cfg systemConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	label := cfg.name
	if label == "" {
		label = "system"
	}
	if len(components) == 0 {
		return nil, fmt.Errorf("soferr: %s has no components", label)
	}
	s := &System{
		name:       cfg.name,
		components: make([]Component, len(components)),
		noCache:    cfg.noCache,
	}
	copy(s.components, components)
	for i, c := range s.components {
		if c.Trace == nil {
			return nil, fmt.Errorf("soferr: %s component %d (%s) has nil trace", label, i, c.Name)
		}
		if c.RatePerYear < 0 || math.IsNaN(c.RatePerYear) || math.IsInf(c.RatePerYear, 0) {
			return nil, fmt.Errorf("soferr: %s component %d (%s) has invalid rate %v", label, i, c.Name, c.RatePerYear)
		}
	}

	mcs, err := toMonteCarlo(s.components)
	if err != nil {
		return nil, err
	}
	s.mc, err = montecarlo.Compile(mcs)
	if err != nil {
		return nil, fmt.Errorf("soferr: %s: %w", label, err)
	}

	// AVF+SOFR is cheap and deterministic: compute at build time.
	mttfs := make([]float64, len(s.components))
	for i, c := range s.components {
		mttfs[i], err = avf.MTTF(units.PerYearToPerSecond(c.RatePerYear), c.Trace.AVF())
		if err != nil {
			s.avfErr = fmt.Errorf("soferr: %s component %s: %w", label, c.Name, err)
			break
		}
	}
	if s.avfErr == nil {
		s.avfSofr, s.avfErr = sofr.SystemMTTF(mttfs)
	}
	return s, nil
}

// Name returns the system's label (empty unless WithName was given).
func (s *System) Name() string { return s.name }

// Components returns a copy of the compiled component list.
func (s *System) Components() []Component {
	out := make([]Component, len(s.components))
	copy(out, s.components)
	return out
}

// RatePerYear returns the summed raw (pre-masking) error rate.
func (s *System) RatePerYear() float64 {
	total := 0.0
	for _, c := range s.components {
		total += c.RatePerYear
	}
	return total
}

// MTTF estimates the system MTTF with the given method. Settings that a
// method does not use are ignored (seeds do not change AVF+SOFR).
// Deterministic methods and repeated identical Monte-Carlo queries are
// served from the compiled state at cache-hit cost.
func (s *System) MTTF(ctx context.Context, method Method, opts ...EstimateOption) (Estimate, error) {
	var set estimateSettings
	for _, opt := range opts {
		opt(&set)
	}
	if set.timeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, set.timeLimit)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return Estimate{}, err
	}
	switch method {
	case AVFSOFR:
		if s.avfErr != nil {
			return Estimate{}, s.avfErr
		}
		return newEstimate(AVFSOFR, s.avfSofr, 0, estimateSettings{}), nil
	case SoftArch:
		// Section 5.4's survival model is the quantity the Exact engine
		// integrates, so SoftArch reads the same compiled state.
		mttf, err := s.mc.ExactMTTF()
		if err != nil {
			return Estimate{}, err
		}
		return newEstimate(SoftArch, mttf, 0, estimateSettings{}), nil
	case MonteCarlo:
		return s.monteCarlo(ctx, set)
	default:
		return Estimate{}, fmt.Errorf("soferr: unknown method %v", method)
	}
}

// Compare runs several methods against the same compiled state and
// returns their estimates in argument order. With no methods given it
// compares all three. Settings apply to every stochastic method, so the
// comparison is apples-to-apples at one (trials, seed, engine) point.
func (s *System) Compare(ctx context.Context, methods ...Method) ([]Estimate, error) {
	return s.CompareWith(ctx, nil, methods...)
}

// CompareWith is Compare with explicit per-query options.
func (s *System) CompareWith(ctx context.Context, opts []EstimateOption, methods ...Method) ([]Estimate, error) {
	if len(methods) == 0 {
		methods = Methods()
	}
	out := make([]Estimate, 0, len(methods))
	for _, m := range methods {
		est, err := s.MTTF(ctx, m, opts...)
		if err != nil {
			// The underlying error is already package-prefixed; only
			// name the failing method.
			return nil, fmt.Errorf("%v: %w", m, err)
		}
		out = append(out, est)
	}
	return out, nil
}

func (s *System) monteCarlo(ctx context.Context, set estimateSettings) (Estimate, error) {
	// Normalize the settings that determine the result so equivalent
	// queries share one cache entry. Workers and time limits change
	// only the wall time, never the value.
	if set.trials <= 0 {
		set.trials = DefaultTrials
	}
	if set.targetRSE < 0 || set.targetRSE >= 1 || math.IsNaN(set.targetRSE) {
		return Estimate{}, fmt.Errorf("soferr: Monte-Carlo target relative standard error %v outside [0, 1): %w",
			set.targetRSE, ErrInvalidArgument)
	}
	if set.engine == Exact {
		// The exact engine is trial-free and deterministic: trials,
		// seed, sampler, and precision target cannot change the answer,
		// so they are normalized out of the cache key and the estimate —
		// every exact query on this system shares one cache entry.
		set.trials, set.seed, set.sampler, set.targetRSE = 0, 0, PCG, 0
	}
	key := mcCacheKey{trials: set.trials, seed: set.seed, engine: set.engine, sampler: set.sampler, targetRSE: set.targetRSE}
	if !s.noCache {
		if v, ok := s.mcCache.Load(key); ok {
			est := v.(Estimate)
			est.Cached = true
			return est, nil
		}
	}
	res, err := s.mc.MTTF(ctx, montecarlo.Config{
		Trials:          set.trials,
		Seed:            set.seed,
		Engine:          set.engine,
		Sampler:         set.sampler,
		Workers:         set.workers,
		TargetRelStdErr: set.targetRSE,
	})
	if err != nil {
		return Estimate{}, err
	}
	est := newEstimate(MonteCarlo, res.MTTF, res.StdErr, set)
	est.Trials = res.Trials
	// Bounded retention: LoadOrStore so concurrent first-queries count
	// each key once; a race can overshoot the cap by at most the number
	// of in-flight queries.
	if !s.noCache && s.mcCacheSize.Load() < maxCachedEstimates {
		if _, loaded := s.mcCache.LoadOrStore(key, est); !loaded {
			s.mcCacheSize.Add(1)
		}
	}
	return est, nil
}

func newEstimate(m Method, mttf, stderr float64, set estimateSettings) Estimate {
	est := Estimate{
		Method: m,
		MTTF:   mttf,
		StdErr: stderr,
	}
	switch {
	case mttf == 0:
		// A zero MTTF is instantaneous failure: infinite failure rate,
		// not the FIT = 0 of a system that cannot fail.
		est.FIT = math.Inf(1)
	case !math.IsInf(mttf, 1):
		est.FIT = units.PerYearToFIT(units.PerSecondToPerYear(1 / mttf))
	}
	if m == MonteCarlo {
		est.Trials = set.trials
		est.Seed = set.seed
		est.Engine = set.engine
		est.Sampler = set.sampler
		est.TargetRelStdErr = set.targetRSE
	}
	return est
}

// Reliability returns the exact probability that the system survives
// (suffers no unmasked error) through [0, t]: the first-principles
// survival function S(t) = exp(-sum_i rate_i * m_i(t)) the flat MTTF
// API cannot express. It answers from the Exact engine's state, so it
// covers the systems the Exact engine covers: one failing component
// with any trace, or several with materialized traces on commensurate
// periods. Other systems return ErrExactUnavailable.
func (s *System) Reliability(ctx context.Context, t float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if t < 0 || math.IsNaN(t) {
		return 0, fmt.Errorf("soferr: Reliability at invalid time %v: %w", t, ErrInvalidArgument)
	}
	return s.mc.ExactReliability(t)
}

// FailureQuantile returns the time by which the system has failed with
// probability p: the generalized inverse of 1 - Reliability. The result
// is the earliest instant at which the failure probability exceeds p
// (failures only land at vulnerable instants, so quantiles jump across
// idle spans). p = 0 returns the first vulnerable instant; p = 1 and
// systems that can never fail return +Inf. Like Reliability it answers
// from the Exact engine's state and refuses with ErrExactUnavailable
// where that state does not exist.
func (s *System) FailureQuantile(ctx context.Context, p float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("soferr: FailureQuantile of invalid probability %v: %w", p, ErrInvalidArgument)
	}
	if p == 1 {
		return math.Inf(1), nil
	}
	return s.mc.ExactFailureQuantile(p)
}
