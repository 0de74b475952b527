package soferr

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/soferr/soferr/internal/benchsim"
	"github.com/soferr/soferr/internal/flight"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/turandot"
	"github.com/soferr/soferr/internal/workload"
)

// Trace-spec kinds: the declarative constructors a TraceSpec can name.
// Kind matching is case-insensitive.
const (
	// TraceKindBusyIdle is the paper's canonical synthetic loop:
	// vulnerable for the first BusySeconds of every PeriodSeconds.
	TraceKindBusyIdle = "busyidle"
	// TraceKindPeriodic is a 0/1 loop of PeriodSeconds with the listed
	// vulnerable Intervals.
	TraceKindPeriodic = "periodic"
	// TraceKindDay is the Section 4.2 "day" schedule (24-hour loop, busy
	// during the day, idle at night).
	TraceKindDay = "day"
	// TraceKindWeek is the Section 4.2 "week" schedule (busy five
	// business days, idle on the weekend).
	TraceKindWeek = "week"
	// TraceKindCombined is the Section 4.2 "combined" schedule: a
	// 24-hour loop whose halves repeat the A and B benchmark traces
	// (defaulting to the paper's representative gzip/swim pair).
	TraceKindCombined = "combined"
	// TraceKindBenchmark simulates a bundled SPEC CPU2000-like benchmark
	// on the Table 1 machine and uses one of its component masking
	// traces (Unit; default the processor-level union).
	TraceKindBenchmark = "benchmark"
)

// Benchmark units a TraceKindBenchmark spec can select.
const (
	// UnitProcessor is the rate-weighted union of the integer,
	// floating-point, and decode traces (Section 4.2's processor-level
	// failure model; the default).
	UnitProcessor = "processor"
	UnitInt       = "int"
	UnitFP        = "fp"
	UnitDecode    = "decode"
	UnitRegFile   = "regfile"
)

// TraceSpec is a declarative, JSON-serializable trace constructor: it
// names one of the package's trace builders plus its parameters, so a
// masking trace can be described in a config file or an HTTP request
// and built on demand. Which fields matter depends on Kind; unused
// fields must be zero (Validate enforces the required ones).
type TraceSpec struct {
	// Kind selects the constructor (TraceKind*, case-insensitive).
	Kind string `json:"kind"`

	// PeriodSeconds and BusySeconds parameterize busyidle; Period and
	// Intervals parameterize periodic.
	PeriodSeconds float64    `json:"period_seconds,omitempty"`
	BusySeconds   float64    `json:"busy_seconds,omitempty"`
	Intervals     []Interval `json:"intervals,omitempty"`

	// Benchmark names the bundled benchmark to simulate; Unit selects
	// which component trace to use (default UnitProcessor).
	// Instructions and SimSeed override the compiler's simulation
	// defaults (300000 instructions, seed 1) when non-zero. Because a
	// TraceSpec can arrive from an untrusted client, Instructions is
	// capped at MaxSpecInstructions; set Compiler.Instructions for
	// larger operator-controlled simulations.
	Benchmark    string `json:"benchmark,omitempty"`
	Unit         string `json:"unit,omitempty"`
	Instructions int    `json:"instructions,omitempty"`
	SimSeed      uint64 `json:"sim_seed,omitempty"`

	// A and B are the combined schedule's half-day benchmark specs. Nil
	// means the paper's representative pair (gzip and swim, processor
	// unit).
	A *TraceSpec `json:"a,omitempty"`
	B *TraceSpec `json:"b,omitempty"`
}

// Validate checks the spec's structure without building anything:
// known kind, required parameters present and finite, benchmark names
// resolvable.
func (ts TraceSpec) Validate() error { return ts.validate("trace") }

func (ts TraceSpec) validate(path string) error {
	switch strings.ToLower(ts.Kind) {
	case TraceKindBusyIdle:
		if !(ts.PeriodSeconds > 0) || math.IsInf(ts.PeriodSeconds, 0) {
			return fmt.Errorf("%s: busyidle needs period_seconds > 0, got %v", path, ts.PeriodSeconds)
		}
		if ts.BusySeconds < 0 || ts.BusySeconds > ts.PeriodSeconds || math.IsNaN(ts.BusySeconds) {
			return fmt.Errorf("%s: busy_seconds %v outside [0, %v]", path, ts.BusySeconds, ts.PeriodSeconds)
		}
	case TraceKindPeriodic:
		if !(ts.PeriodSeconds > 0) || math.IsInf(ts.PeriodSeconds, 0) {
			return fmt.Errorf("%s: periodic needs period_seconds > 0, got %v", path, ts.PeriodSeconds)
		}
		cursor := 0.0
		for i, iv := range ts.Intervals {
			if iv.Start < cursor || math.IsNaN(iv.Start) {
				return fmt.Errorf("%s: interval %d overlaps or is unsorted", path, i)
			}
			if iv.End <= iv.Start || iv.End > ts.PeriodSeconds || math.IsNaN(iv.End) {
				return fmt.Errorf("%s: interval %d out of range: [%v, %v)", path, i, iv.Start, iv.End)
			}
			cursor = iv.End
		}
	case TraceKindDay, TraceKindWeek:
		// No parameters.
	case TraceKindBenchmark:
		if err := validateBenchmarkSpec(ts, path); err != nil {
			return err
		}
	case TraceKindCombined:
		for _, half := range []struct {
			name string
			spec *TraceSpec
		}{{"a", ts.A}, {"b", ts.B}} {
			if half.spec == nil {
				continue // defaults to the representative pair
			}
			hp := path + "." + half.name
			if strings.EqualFold(half.spec.Kind, TraceKindCombined) {
				return fmt.Errorf("%s: combined halves cannot nest another combined schedule", hp)
			}
			if err := half.spec.validate(hp); err != nil {
				return err
			}
		}
	case "":
		return fmt.Errorf("%s: missing kind (want busyidle, periodic, day, week, combined, or benchmark)", path)
	default:
		return fmt.Errorf("%s: unknown kind %q (want busyidle, periodic, day, week, combined, or benchmark)", path, ts.Kind)
	}
	return nil
}

func validateBenchmarkSpec(ts TraceSpec, path string) error {
	if ts.Benchmark == "" {
		return fmt.Errorf("%s: benchmark spec needs a benchmark name (see 'soferr workloads')", path)
	}
	if _, err := workload.PhasedByName(ts.Benchmark); err != nil {
		if _, err := workload.ByName(ts.Benchmark); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	switch strings.ToLower(ts.Unit) {
	case "", UnitProcessor, UnitInt, UnitFP, UnitDecode, UnitRegFile:
	default:
		return fmt.Errorf("%s: unknown unit %q (want processor, int, fp, decode, or regfile)", path, ts.Unit)
	}
	if ts.Instructions < 0 {
		return fmt.Errorf("%s: negative instructions %d", path, ts.Instructions)
	}
	if ts.Instructions > MaxSpecInstructions {
		return fmt.Errorf("%s: instructions %d exceeds the per-spec cap %d (set Compiler.Instructions for larger operator-controlled simulations)",
			path, ts.Instructions, MaxSpecInstructions)
	}
	return nil
}

// MaxSpecInstructions caps a TraceSpec's per-benchmark simulated
// instruction count. Specs are accepted from untrusted clients (the
// query server), and simulation cost is linear in instructions, so the
// cap bounds the work one request can demand to a few seconds.
// Operator-controlled defaults (Compiler.Instructions, the CLI
// -instructions flag) are not capped.
const MaxSpecInstructions = 2_000_000

// label derives a display name for unnamed sources and components.
func (ts TraceSpec) label() string {
	switch strings.ToLower(ts.Kind) {
	case TraceKindBenchmark:
		return ts.Benchmark
	case TraceKindBusyIdle:
		return fmt.Sprintf("busyidle(%g/%g)", ts.BusySeconds, ts.PeriodSeconds)
	default:
		return strings.ToLower(ts.Kind)
	}
}

// ComponentSpec describes one failure source of a Spec: a trace
// constructor plus the raw error rate, optionally replicated Count
// times in phase.
type ComponentSpec struct {
	// Name labels the component in error messages (optional).
	Name string `json:"name,omitempty"`
	// RatePerYear is the per-component raw (pre-masking) soft error rate
	// in errors/year.
	RatePerYear float64 `json:"rate_per_year"`
	// Count is the number of identical in-phase copies in series
	// (default 1). Identical in-phase components superpose exactly to
	// one component at Count x RatePerYear, which is how the compiled
	// System represents them.
	Count int `json:"count,omitempty"`
	// Trace constructs the component's masking trace.
	Trace TraceSpec `json:"trace"`
}

// Spec is the canonical, declarative description of a series system:
// what a config file or an HTTP request supplies where Go code would
// pass []Component to NewSystem. A Spec is plain data — it marshals to
// stable JSON, validates without compiling, hashes to a stable content
// key (Hash), and compiles to an immutable *System (Compile). Equal
// Specs hash equal, so a cache keyed by Hash serves one compiled System
// to every equivalent request (see internal/server).
type Spec struct {
	// Name labels the compiled system (optional).
	Name string `json:"name,omitempty"`
	// Components are the system's failure sources (at least one).
	Components []ComponentSpec `json:"components"`
}

// Validate checks the spec's structure: at least one component, finite
// non-negative rates, non-negative counts, and valid trace specs. It is
// what Compile runs first, and what the query server runs on every
// decoded request.
func (s Spec) Validate() error {
	if len(s.Components) == 0 {
		return fmt.Errorf("soferr: spec %q has no components", s.Name)
	}
	for i, c := range s.Components {
		path := fmt.Sprintf("soferr: spec %q component %d", s.Name, i)
		if c.Name != "" {
			path = fmt.Sprintf("soferr: spec %q component %d (%s)", s.Name, i, c.Name)
		}
		if c.RatePerYear < 0 || math.IsNaN(c.RatePerYear) || math.IsInf(c.RatePerYear, 0) {
			return fmt.Errorf("%s: invalid rate_per_year %v", path, c.RatePerYear)
		}
		if c.Count < 0 {
			return fmt.Errorf("%s: negative count %d", path, c.Count)
		}
		if err := c.Trace.validate(path + ": trace"); err != nil {
			return err
		}
	}
	return nil
}

// Hash returns a stable content hash of the spec: "sha256:" plus the
// hex digest of the spec's canonical JSON encoding. Equal Spec values
// always hash equal, so the hash is a safe cache key for compiled
// Systems; distinct encodings of the same semantics (an omitted default
// versus the default written out) hash apart, which only costs a
// duplicate cache entry, never a wrong answer.
func (s Spec) Hash() string {
	data, err := json.Marshal(s)
	if err != nil {
		// Non-finite floats cannot marshal; such specs also fail
		// Validate, so this path only keys never-compilable specs. Hash
		// a by-value rendering (pointers dereferenced) so equal Spec
		// values still hash equal.
		data = canonicalSpecBytes(s)
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// canonicalSpecBytes renders a spec deterministically by value for the
// non-marshalable fallback: every field in declaration order, nested
// TraceSpecs dereferenced (never their addresses).
func canonicalSpecBytes(s Spec) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "spec|%q", s.Name)
	for _, c := range s.Components {
		fmt.Fprintf(&b, "|comp{%q %x %d ", c.Name, math.Float64bits(c.RatePerYear), c.Count)
		writeCanonicalTrace(&b, c.Trace)
		b.WriteString("}")
	}
	return []byte(b.String())
}

func writeCanonicalTrace(b *strings.Builder, ts TraceSpec) {
	fmt.Fprintf(b, "trace{%q %x %x [", ts.Kind,
		math.Float64bits(ts.PeriodSeconds), math.Float64bits(ts.BusySeconds))
	for _, iv := range ts.Intervals {
		fmt.Fprintf(b, "(%x %x)", math.Float64bits(iv.Start), math.Float64bits(iv.End))
	}
	fmt.Fprintf(b, "] %q %q %d %d ", ts.Benchmark, ts.Unit, ts.Instructions, ts.SimSeed)
	for _, half := range []*TraceSpec{ts.A, ts.B} {
		if half == nil {
			b.WriteString("nil ")
		} else {
			writeCanonicalTrace(b, *half)
		}
	}
	b.WriteString("}")
}

// Compile validates the spec and builds it into an immutable System
// using a fresh Compiler (default simulation settings, no shared
// benchmark cache). Services compiling many specs should hold one
// Compiler and call its Compile method instead, so specs that share
// benchmark simulations share the work.
func (s Spec) Compile() (*System, error) {
	var c Compiler
	return c.Compile(s)
}

// Compiler turns Specs into compiled Systems. It is the one place a
// benchmark trace is simulated, unioned and cached: every entry point
// (Spec files, `soferr sweep`, the query server, the experiment
// harness) builds its benchmark traces through one. Simulations (the
// expensive, deterministic part of trace building) and processor
// unions are cached per (benchmark, instructions, seed), so many specs
// — or one server's whole request stream — share each of them. Each
// key builds once among concurrent requests; a build that fails or
// panics returns its error to every waiter and is dropped, so a later
// request retries. Keys are client-controlled, so each cache is an LRU
// of 64 entries, and an evicted entry still finishes for the requests
// waiting on it. The zero value is ready to use; a Compiler is safe
// for concurrent use.
type Compiler struct {
	// Instructions is the default per-benchmark simulated instruction
	// count for specs that do not set their own (default 300000).
	Instructions int
	// SimSeed is the default benchmark-generation seed for specs that do
	// not set their own (default 1; 0 means the default).
	SimSeed uint64
	// Log, when non-nil, receives progress lines for benchmark
	// simulations.
	Log io.Writer

	sims  flight.Cache[simKey, *turandot.ComponentTraces]
	procs flight.Cache[simKey, *trace.Piecewise]
}

type simKey struct {
	bench        string
	instructions int
	seed         uint64
}

// CacheStats reports the counters of the compiler's simulation and
// processor-union caches, which the query server shows in /metrics.
func (c *Compiler) CacheStats() (simulations, unions flight.Stats) {
	return c.sims.Stats(), c.procs.Stats()
}

// Compile validates a spec and builds its System: one trace per
// component spec, Count copies superposed into an effective rate, all
// through the compiler's shared benchmark cache.
func (c *Compiler) Compile(spec Spec) (*System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	comps := make([]Component, len(spec.Components))
	for i, cs := range spec.Components {
		tr, err := c.BuildTrace(cs.Trace)
		if err != nil {
			name := cs.Name
			if name == "" {
				name = cs.Trace.label()
			}
			return nil, fmt.Errorf("soferr: spec %q component %d (%s): %w", spec.Name, i, name, err)
		}
		count := cs.Count
		if count == 0 {
			count = 1
		}
		name := cs.Name
		if name == "" {
			name = cs.Trace.label()
		}
		comps[i] = Component{
			Name:        name,
			RatePerYear: cs.RatePerYear * float64(count),
			Trace:       tr,
		}
	}
	return NewSystem(comps, WithName(spec.Name))
}

// BuildTrace constructs the masking trace a TraceSpec describes,
// consulting the compiler's benchmark cache for simulated kinds.
func (c *Compiler) BuildTrace(ts TraceSpec) (Trace, error) {
	if err := ts.Validate(); err != nil {
		return nil, fmt.Errorf("soferr: %w", err)
	}
	switch strings.ToLower(ts.Kind) {
	case TraceKindBusyIdle:
		return BusyIdleTrace(ts.PeriodSeconds, ts.BusySeconds)
	case TraceKindPeriodic:
		return PeriodicTrace(ts.PeriodSeconds, ts.Intervals)
	case TraceKindDay:
		return workload.Day()
	case TraceKindWeek:
		return workload.Week()
	case TraceKindBenchmark:
		return c.benchmarkTrace(ts)
	case TraceKindCombined:
		a, b := ts.A, ts.B
		if a == nil {
			a = &TraceSpec{Kind: TraceKindBenchmark, Benchmark: benchsim.SPECIntRepresentative}
		}
		if b == nil {
			b = &TraceSpec{Kind: TraceKindBenchmark, Benchmark: benchsim.SPECFPRepresentative}
		}
		ta, err := c.BuildTrace(*a)
		if err != nil {
			return nil, err
		}
		tb, err := c.BuildTrace(*b)
		if err != nil {
			return nil, err
		}
		pa, ok := ta.(*trace.Piecewise)
		if !ok {
			return nil, fmt.Errorf("soferr: combined half a is not a materialized trace (%T)", ta)
		}
		pb, ok := tb.(*trace.Piecewise)
		if !ok {
			return nil, fmt.Errorf("soferr: combined half b is not a materialized trace (%T)", tb)
		}
		return workload.Combined(pa, pb)
	default:
		// Validate rejected unknown kinds already.
		return nil, fmt.Errorf("soferr: unknown trace kind %q", ts.Kind)
	}
}

func (c *Compiler) simSettings(ts TraceSpec) simKey {
	key := simKey{bench: ts.Benchmark, instructions: ts.Instructions, seed: ts.SimSeed}
	if key.instructions <= 0 {
		key.instructions = c.Instructions
	}
	if key.instructions <= 0 {
		key.instructions = defaultSimInstructions
	}
	if key.seed == 0 {
		key.seed = c.SimSeed
	}
	if key.seed == 0 {
		key.seed = defaultSimSeed
	}
	return key
}

// The simulation defaults of every benchmark trace.
const (
	// defaultSimInstructions is the per-benchmark simulated instruction
	// count (the paper used 100M; a few hundred thousand give stable
	// AVFs in seconds of CPU time).
	defaultSimInstructions = 300000
	// defaultSimSeed drives benchmark generation deterministically.
	defaultSimSeed = 1
)

// benchmarkTrace returns the requested unit trace of a simulated
// benchmark, running the simulation at most once per (benchmark,
// instructions, seed).
func (c *Compiler) benchmarkTrace(ts TraceSpec) (Trace, error) {
	key := c.simSettings(ts)
	unit := strings.ToLower(ts.Unit)
	if unit == "" {
		unit = UnitProcessor
	}
	if unit == UnitProcessor {
		return c.processorTrace(key)
	}
	sim, err := c.simulate(key)
	if err != nil {
		return nil, err
	}
	switch unit {
	case UnitInt:
		return sim.Int, nil
	case UnitFP:
		return sim.FP, nil
	case UnitDecode:
		return sim.Decode, nil
	case UnitRegFile:
		return sim.RegFile, nil
	default:
		return nil, fmt.Errorf("soferr: unknown benchmark unit %q", ts.Unit)
	}
}

// processorTrace returns the processor-level union trace: the
// rate-weighted union of the integer, floating-point, and decode unit
// traces, built at most once per (benchmark, instructions, seed).
func (c *Compiler) processorTrace(key simKey) (*trace.Piecewise, error) {
	h, _ := c.procs.Get(key, func() (*trace.Piecewise, error) {
		sim, err := c.simulate(key)
		if err != nil {
			return nil, err
		}
		union, err := benchsim.ProcessorUnion(key.bench, sim)
		if err != nil {
			return nil, fmt.Errorf("soferr: %w", err)
		}
		return union, nil
	})
	return h.Wait()
}

// simulate runs one benchmark simulation on the Table 1 machine at most
// once per (benchmark, instructions, seed). Phased-program names are
// accepted alongside the plain profiles.
func (c *Compiler) simulate(key simKey) (*turandot.ComponentTraces, error) {
	h, _ := c.sims.Get(key, func() (*turandot.ComponentTraces, error) {
		traces, _, err := benchsim.Simulate(key.bench, key.instructions, key.seed, c.Log)
		return traces, err
	})
	return h.Wait()
}

// SourceSpec names a TraceSpec for use on a sweep's trace axis: the
// declarative counterpart of TraceSource, decodable from JSON.
type SourceSpec struct {
	// Name labels the source in cells and results (default: derived from
	// the trace spec).
	Name string `json:"name,omitempty"`
	// Trace describes the source's masking trace.
	Trace TraceSpec `json:"trace"`
}

// Sources converts declarative source specs into lazy TraceSources
// backed by the compiler: each source's trace is built at most once per
// sweep, only if some cell references it, and benchmark simulations are
// shared compiler-wide. The `soferr sweep` CLI and the server's
// /v1/sweep endpoint both build their axes through this path.
func (c *Compiler) Sources(specs []SourceSpec) []TraceSource {
	out := make([]TraceSource, len(specs))
	for i, sp := range specs {
		name := sp.Name
		if name == "" {
			name = sp.Trace.label()
		}
		ts := sp.Trace
		out[i] = TraceSource{
			Name:  name,
			Build: func() (Trace, error) { return c.BuildTrace(ts) },
		}
	}
	return out
}
