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
// point: Engine's UnmarshalText, which decodes the CLI -engine flags
// and every JSON document, parses through it (and reads the empty name
// as the Fused default).
func EngineByName(name string) (Engine, error) {
	return montecarlo.EngineByName(name)
}

// SamplerByName parses a sampler name as printed by Sampler.String,
// case-insensitively; the empty string is DefaultSampler. Like
// EngineByName it is the single name-parsing point, behind Sampler's
// UnmarshalText.
func SamplerByName(name string) (Sampler, error) {
	return montecarlo.SamplerByName(name)
}

// Methods returns all estimation methods in comparison order.
func Methods() []Method { return []Method{AVFSOFR, MonteCarlo, SoftArch} }

// DefaultTrials is the default Monte-Carlo trial count.
const DefaultTrials = montecarlo.DefaultTrials

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
	// Sampler is the uniform-draw source the Monte-Carlo run used: PCG
	// or Sobol, never DefaultSampler. A query that named no sampler
	// records the one it resolved to; Exact answers and never-failing
	// systems under DefaultSampler record PCG. Like Engine it is
	// meaningful only for MonteCarlo estimates: the deterministic
	// methods leave the zero value, and the JSON encoding omits it. For
	// Sobol runs, Trials is still the effective trial count the
	// estimate averaged over — QMC points count one-for-one as trials.
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

// MarshalJSON renders the estimate with stable string names for
// method, engine and sampler and JSON-safe encodings for non-finite
// floats ("+Inf", "NaN" as strings). The output is byte-stable, and its
// key order is part of that: keys appear sorted, as "fit", "method",
// "mttf_seconds" for the deterministic methods and "cached", "engine",
// "fit", "method", "mttf_seconds", "sampler", "seed", "stderr_seconds",
// "target_rel_stderr" (only when set), "trials" for MonteCarlo.
// UnmarshalJSON inverts it exactly: json.Unmarshal(json.Marshal(e))
// reproduces every field.
//
// The keys are appended by hand rather than through a map and
// json.Marshal, which cost an allocation per value and a re-scan of
// every nested Marshaler's output. The method, engine and sampler names
// are plain ASCII (a fixed name or "Type(n)") and need no escaping.
func (e Estimate) MarshalJSON() ([]byte, error) {
	mc := e.Method == MonteCarlo
	b := make([]byte, 0, 320) // the longest in-range encoding is 289 bytes
	b = append(b, '{')
	if mc {
		b = append(b, `"cached":`...)
		b = strconv.AppendBool(b, e.Cached)
		b = append(b, `,"engine":"`...)
		b = append(b, e.Engine.String()...)
		b = append(b, `",`...)
	}
	b = append(b, `"fit":`...)
	b = appendJSONFloat(b, e.FIT)
	b = append(b, `,"method":"`...)
	b = append(b, e.Method.String()...)
	b = append(b, `","mttf_seconds":`...)
	b = appendJSONFloat(b, e.MTTF)
	if mc {
		b = append(b, `,"sampler":"`...)
		b = append(b, e.Sampler.String()...)
		b = append(b, `","seed":`...)
		b = strconv.AppendUint(b, e.Seed, 10)
		b = append(b, `,"stderr_seconds":`...)
		b = appendJSONFloat(b, e.StdErr)
		if e.TargetRelStdErr != 0 {
			b = append(b, `,"target_rel_stderr":`...)
			b = appendJSONFloat(b, e.TargetRelStdErr)
		}
		b = append(b, `,"trials":`...)
		b = strconv.AppendInt(b, int64(e.Trials), 10)
	}
	return append(b, '}'), nil
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
	// Engine and Sampler decode by name, an empty name as the default.
	// An absent engine is the default too, but an absent sampler is PCG:
	// a Monte-Carlo document predating the field ran PCG, the only
	// sampler then.
	var raw struct {
		Method  string    `json:"method"`
		MTTF    JSONFloat `json:"mttf_seconds"`
		FIT     JSONFloat `json:"fit"`
		StdErr  JSONFloat `json:"stderr_seconds"`
		Trials  int       `json:"trials"`
		Seed    uint64    `json:"seed"`
		Engine  Engine    `json:"engine"`
		Sampler Sampler   `json:"sampler"`
		Target  JSONFloat `json:"target_rel_stderr"`
		Cached  bool      `json:"cached"`
	}
	raw.Sampler = PCG
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	method, err := MethodByName(raw.Method)
	if err != nil {
		return err
	}
	if method != MonteCarlo {
		// MarshalJSON writes no sampler for the deterministic methods.
		raw.Sampler = DefaultSampler
	}
	*e = Estimate{
		Method:          method,
		MTTF:            float64(raw.MTTF),
		FIT:             float64(raw.FIT),
		StdErr:          float64(raw.StdErr),
		Trials:          raw.Trials,
		Seed:            raw.Seed,
		Engine:          raw.Engine,
		Sampler:         raw.Sampler,
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
	return appendJSONFloat(nil, float64(f)), nil
}

// appendJSONFloat appends v as JSONFloat encodes it: the shortest 'g'
// form of a finite value, or the quoted "+Inf", "-Inf" or "NaN".
func appendJSONFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
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
	name string
}

// WithName labels the system in error messages.
func WithName(name string) SystemOption {
	return func(c *systemConfig) { c.name = name }
}

// Query is the settings of one Monte-Carlo query: the (engine,
// sampler, trials, seed, target) point a method comparison answers at,
// plus the parallelism it runs with. It is the one form every layer
// passes: the System's memo key, the body of the server's estimate and
// sweep requests, the client's options, and the CLI's flags. Zero
// fields mean defaults, and the JSON names are the wire names; engine
// and sampler names are case-insensitive, with "" the default.
type Query struct {
	// Engine selects the trial implementation: Fused (the default)
	// samples, Exact gives the trial-free closed-form answer with zero
	// standard error.
	Engine Engine `json:"engine,omitempty"`
	// Sampler selects the uniform-draw source. Sobol switches the Fused
	// engine to Owen-scrambled quasi-Monte-Carlo points: variance falls
	// near O(1/n) instead of O(1/sqrt n), so adaptive precision targets
	// are reached in far fewer trials. DefaultSampler, the zero value,
	// runs Sobol for adaptive queries that allow it and PCG otherwise
	// (see DefaultSampler); Estimate.Sampler records which ran. The
	// Exact engine ignores samplers.
	Sampler Sampler `json:"sampler,omitempty"`
	// Trials is the trial count, and the cap of an adaptive run;
	// zero or negative means DefaultTrials.
	Trials int `json:"trials,omitempty"`
	// Seed selects the deterministic random stream: equal Queries give
	// bit-identical estimates. A sweep's per-cell seeds derive from it.
	Seed uint64 `json:"seed,omitempty"`
	// TargetRelStdErr, when non-zero, switches the query to adaptive
	// precision targeting: trials run in deterministic doubling rounds
	// until the relative standard error (StdErr/MTTF) reaches the
	// target, the Trials cap stops it, or the query's context ends.
	// Adaptive estimates are bit-identical for any worker count, record
	// the trials actually used in Estimate.Trials, and carry the target
	// in Estimate.TargetRelStdErr. Targets outside [0, 1) are rejected
	// with ErrInvalidArgument.
	TargetRelStdErr float64 `json:"target_rel_stderr,omitempty"`
	// Workers bounds parallelism (default GOMAXPROCS). It changes only
	// the wall time, never the estimate, so it is never part of the
	// memo key.
	Workers int `json:"workers,omitempty"`
}

// normalize returns the memo key of q: the settings that determine the
// answer, in one canonical form. Trials default to DefaultTrials; the
// Exact engine is trial-free and deterministic, so trials, seed,
// sampler, and target cannot change its answer and are zeroed (the
// sampler to DefaultSampler); Workers never changes an answer and is
// always zeroed. DefaultSampler stays a key of its own: it resolves per
// run, so it is not the same key as the sampler it runs.
func (q Query) normalize() Query {
	if q.Trials <= 0 {
		q.Trials = DefaultTrials
	}
	if q.Engine == Exact {
		q.Trials, q.Seed, q.Sampler, q.TargetRelStdErr = 0, 0, DefaultSampler, 0
	}
	q.Workers = 0
	return q
}

// EstimateOption tunes one MTTF/Compare query. Zero or unset values
// mean defaults, so options can be threaded through unconditionally.
type EstimateOption func(*queryOptions)

// queryOptions is a Query plus the one option outside it: the wall-time
// limit, which bounds the query's context but is no query setting.
type queryOptions struct {
	Query
	timeLimit time.Duration
}

// applyOptions folds opts, in order, over the zero Query.
func applyOptions(opts []EstimateOption) queryOptions {
	var o queryOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithQuery sets every Query field at once, replacing any earlier
// setter; later setters refine it.
func WithQuery(q Query) EstimateOption {
	return func(o *queryOptions) { o.Query = q }
}

// WithTrials sets Query.Trials.
func WithTrials(n int) EstimateOption {
	return func(o *queryOptions) { o.Trials = n }
}

// WithSeed sets Query.Seed.
func WithSeed(seed uint64) EstimateOption {
	return func(o *queryOptions) { o.Seed = seed }
}

// WithEngine sets Query.Engine.
func WithEngine(e Engine) EstimateOption {
	return func(o *queryOptions) { o.Engine = e }
}

// WithSampler sets Query.Sampler.
func WithSampler(s Sampler) EstimateOption {
	return func(o *queryOptions) { o.Sampler = s }
}

// WithWorkers sets Query.Workers.
func WithWorkers(n int) EstimateOption {
	return func(o *queryOptions) { o.Workers = n }
}

// WithTargetRelStdErr sets Query.TargetRelStdErr.
func WithTargetRelStdErr(target float64) EstimateOption {
	return func(o *queryOptions) { o.TargetRelStdErr = target }
}

// WithTimeLimit bounds the query's wall time: the query's context is
// cancelled after d, and an over-budget Monte-Carlo run returns
// context.DeadlineExceeded.
func WithTimeLimit(d time.Duration) EstimateOption {
	return func(o *queryOptions) { o.timeLimit = d }
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

	mc *montecarlo.Compiled

	// avfSofr is the precomputed AVF+SOFR estimate (deterministic).
	avfSofr float64
	avfErr  error

	mcCache     sync.Map // normalized Query -> Estimate
	mcCacheSize atomic.Int64
}

// maxCachedEstimates bounds the Monte-Carlo query cache. A serving
// System fed per-request seeds or trial counts would otherwise grow one
// Estimate per distinct setting forever; past the cap, results are
// still computed and returned, just not retained.
const maxCachedEstimates = 4096

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
	o := applyOptions(opts)
	if o.timeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeLimit)
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
		return newEstimate(AVFSOFR, s.avfSofr, 0), nil
	case SoftArch:
		// Section 5.4's survival model is the quantity the Exact engine
		// integrates, so SoftArch reads the same compiled state.
		mttf, err := s.mc.ExactMTTF()
		if err != nil {
			return Estimate{}, err
		}
		return newEstimate(SoftArch, mttf, 0), nil
	case MonteCarlo:
		return s.monteCarlo(ctx, o.Query)
	default:
		return Estimate{}, fmt.Errorf("soferr: unknown method %v", method)
	}
}

// Compare runs several methods against the same compiled state and
// returns their estimates in argument order. With no methods given it
// compares all three. One Query applies to every stochastic method, so
// the comparison is apples-to-apples at one (engine, sampler, trials,
// seed, target) point.
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

func (s *System) monteCarlo(ctx context.Context, q Query) (Estimate, error) {
	if q.TargetRelStdErr < 0 || q.TargetRelStdErr >= 1 || math.IsNaN(q.TargetRelStdErr) {
		return Estimate{}, fmt.Errorf("soferr: Monte-Carlo target relative standard error %v outside [0, 1): %w",
			q.TargetRelStdErr, ErrInvalidArgument)
	}
	// Equal normalized Queries share one cache entry: every exact query
	// on this system is one entry, and workers never split the memo.
	key := q.normalize()
	if v, ok := s.mcCache.Load(key); ok {
		est := v.(Estimate)
		est.Cached = true
		return est, nil
	}
	res, err := s.mc.MTTF(ctx, montecarlo.Config{
		Trials:          key.Trials,
		Seed:            key.Seed,
		Engine:          key.Engine,
		Sampler:         key.Sampler,
		Workers:         q.Workers,
		TargetRelStdErr: key.TargetRelStdErr,
	})
	if err != nil {
		return Estimate{}, err
	}
	est := newEstimate(MonteCarlo, res.MTTF, res.StdErr)
	est.Trials, est.Seed = res.Trials, key.Seed
	est.Engine, est.Sampler, est.TargetRelStdErr = key.Engine, res.Sampler, key.TargetRelStdErr
	// Bounded retention: LoadOrStore so concurrent first-queries count
	// each key once; a race can overshoot the cap by at most the number
	// of in-flight queries.
	if s.mcCacheSize.Load() < maxCachedEstimates {
		if _, loaded := s.mcCache.LoadOrStore(key, est); !loaded {
			s.mcCacheSize.Add(1)
		}
	}
	return est, nil
}

func newEstimate(m Method, mttf, stderr float64) Estimate {
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
