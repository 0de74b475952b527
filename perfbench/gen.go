package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"github.com/soferr/soferr"
)

// Endpoint paths the workloads drive.
const (
	pathMTTF        = "/v1/mttf"
	pathCompare     = "/v1/compare"
	pathReliability = "/v1/reliability"
	pathQuantile    = "/v1/quantile"
	pathSweep       = "/v1/sweep?stream=ndjson"
)

// Workload names, as passed to --workload.
const (
	wlHot      = "hot-queries"
	wlCold     = "cold-specs"
	wlAdaptive = "adaptive-sampling"
	wlSweep    = "sweep-grid"
)

var workloadNames = []string{wlHot, wlCold, wlAdaptive, wlSweep}

// Server defaults the generators rely on (internal/server and
// cmd/soferr): the compiled-System LRU capacity and the default
// per-benchmark simulated instruction count.
const (
	serverCacheSize     = 128
	defaultInstructions = 300000
)

// Workload shape constants. Each is part of the benchmark's definition:
// changing one changes what every run measures.
const (
	// hotSpecs is the hot-queries working set, below serverCacheSize.
	hotSpecs = 48
	// hotFusedTrials is the fixed trial count of hot-queries' seeded
	// fused queries (paid once, at warm-up; the query memo serves the rest).
	hotFusedTrials = 4096
	// coldWarmSpecs fresh specs are sent at warm-up: more than the LRU
	// holds, so every timed cold request also evicts.
	coldWarmSpecs = serverCacheSize + 32
	// adaptiveTarget is adaptive-sampling's relative standard error target.
	adaptiveTarget = 0.01
	// adaptiveRound is the trial count every adaptive-sampling system
	// stops at (the third doubling round: 4096, 8192, 16384).
	adaptiveRound = 16384
	// sweepInstructions is the reduced simulated instruction count of
	// sweep-grid's gzip source.
	sweepInstructions = 3000
)

// Per-second caps on the ops a run can send. A stream holds
// cap x seconds x windows requests; a run that exhausts it stops early
// and says so. Each cap is several times the rate measured on a
// 2-core host.
var opsPerSecondCap = map[string]int{
	wlHot:      60000,
	wlCold:     6000,
	wlAdaptive: 2000,
	wlSweep:    800,
}

// request is one encoded request of a workload.
type request struct {
	path string
	body []byte
	// kind labels the request's cost class for per-kind diagnostics.
	kind string
}

// stream is a workload's full, seed-determined request sequence:
// warm-up phases (each finished before the next starts) and the timed
// sequence, both as indexes into reqs.
type stream struct {
	workload string
	reqs     []request
	warm     [][]int32
	timed    []int32
}

// Wire shapes of the query endpoints' requests (internal/server). The
// generators encode them; the traced run decodes them strictly, as the
// server does.
type estimateOptions struct {
	Trials          int     `json:"trials,omitempty"`
	Seed            uint64  `json:"seed,omitempty"`
	Engine          string  `json:"engine,omitempty"`
	Sampler         string  `json:"sampler,omitempty"`
	TargetRelStdErr float64 `json:"target_rel_stderr,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	TimeoutMS       int64   `json:"timeout_ms,omitempty"`
}

type mttfRequest struct {
	Spec   soferr.Spec `json:"spec"`
	Method string      `json:"method,omitempty"`
	estimateOptions
}

type compareRequest struct {
	Spec    soferr.Spec `json:"spec"`
	Methods []string    `json:"methods,omitempty"`
	estimateOptions
}

type reliabilityRequest struct {
	Spec      soferr.Spec `json:"spec"`
	TSeconds  float64     `json:"t_seconds"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

type quantileRequest struct {
	Spec      soferr.Spec `json:"spec"`
	P         float64     `json:"p"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

type sweepRequest struct {
	Name            string              `json:"name,omitempty"`
	Sources         []soferr.SourceSpec `json:"sources"`
	RatesPerYear    []float64           `json:"rates_per_year"`
	Counts          []int               `json:"counts,omitempty"`
	Methods         []string            `json:"methods,omitempty"`
	Seed            uint64              `json:"seed,omitempty"`
	Trials          int                 `json:"trials,omitempty"`
	Engine          string              `json:"engine,omitempty"`
	Sampler         string              `json:"sampler,omitempty"`
	TargetRelStdErr float64             `json:"target_rel_stderr,omitempty"`
	Workers         int                 `json:"workers,omitempty"`
	TimeoutMS       int64               `json:"timeout_ms,omitempty"`
	Stream          string              `json:"stream,omitempty"`
	Cursor          int64               `json:"cursor,omitempty"`
	Limit           int64               `json:"limit,omitempty"`
}

// compareMethods is the method list of sweep requests and of compare
// requests on systems whose components share one period.
var compareMethods = []string{"avf+sofr", "softarch", "montecarlo"}

// specPeriod is a synthetic trace spec's period (0 for simulated ones).
func specPeriod(ts soferr.TraceSpec) float64 {
	switch ts.Kind {
	case soferr.TraceKindDay:
		return 86400
	case soferr.TraceKindWeek:
		return 7 * 86400
	case soferr.TraceKindBusyIdle, soferr.TraceKindPeriodic:
		return ts.PeriodSeconds
	}
	return 0
}

// methodsFor is the compare method list for a spec: SoftArch integrates
// a union trace, which exists only when every component shares one
// period, so it is left out of the others' comparisons.
func methodsFor(spec soferr.Spec) []string {
	for _, c := range spec.Components[1:] {
		if specPeriod(c.Trace) != specPeriod(spec.Components[0].Trace) {
			return []string{"avf+sofr", "montecarlo"}
		}
	}
	return compareMethods
}

// generate builds the workload's stream for a run of the given length
// and number of timed windows (1 untraced, 2 traced).
func generate(workload string, seed uint64, seconds float64, windows int) (*stream, error) {
	perSec, ok := opsPerSecondCap[workload]
	if !ok {
		return nil, fmt.Errorf("%w %q (want one of %v)", errUnknownWorkload, workload, workloadNames)
	}
	n := int(math.Ceil(float64(perSec) * seconds * float64(windows)))
	g := newGen(workload, seed)
	switch workload {
	case wlHot:
		g.hot(n)
	case wlCold:
		g.cold(n)
	case wlAdaptive:
		g.adaptive(n)
	case wlSweep:
		g.sweep(n)
	}
	if g.err != nil {
		return nil, g.err
	}
	return g.st, nil
}

// rngSalt gives each workload its own PCG stream, so the four never
// share inputs for one seed.
var rngSalt = map[string]uint64{wlHot: 0x686f74, wlCold: 0x636f6c64, wlAdaptive: 0x616461, wlSweep: 0x7377}

func newGen(workload string, seed uint64) *gen {
	return &gen{rng: rand.New(rand.NewPCG(seed, rngSalt[workload])), st: &stream{workload: workload}}
}

type gen struct {
	rng *rand.Rand
	st  *stream
	err error
}

// add encodes a request and returns its index.
func (g *gen) add(path, kind string, v any) int32 {
	body, err := json.Marshal(v)
	if err != nil && g.err == nil {
		g.err = fmt.Errorf("encode %s request: %w", kind, err)
	}
	g.st.reqs = append(g.st.reqs, request{path: path, body: body, kind: kind})
	return int32(len(g.st.reqs) - 1)
}

// uniform draws from [lo, hi).
func (g *gen) uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.rng.Float64() }

// logUniform draws from [lo, hi) with a uniform exponent.
func (g *gen) logUniform(lo, hi float64) float64 {
	return math.Exp(g.uniform(math.Log(lo), math.Log(hi)))
}

func (g *gen) pick(xs []float64) float64 { return xs[g.rng.IntN(len(xs))] }

// intervals draws n disjoint, sorted vulnerable intervals on a
// 60-step grid of the period.
func (g *gen) intervals(period float64, n int) []soferr.Interval {
	cuts := g.rng.Perm(61)[:2*n]
	slices.Sort(cuts)
	out := make([]soferr.Interval, n)
	for i := range out {
		out[i] = soferr.Interval{
			Start: period * float64(cuts[2*i]) / 60,
			End:   period * float64(cuts[2*i+1]) / 60,
		}
	}
	return out
}

func busyIdle(period, busy float64) soferr.TraceSpec {
	return soferr.TraceSpec{Kind: soferr.TraceKindBusyIdle, PeriodSeconds: period, BusySeconds: busy}
}

func periodic(period float64, ivs []soferr.Interval) soferr.TraceSpec {
	return soferr.TraceSpec{Kind: soferr.TraceKindPeriodic, PeriodSeconds: period, Intervals: ivs}
}

func kindOnly(kind string) soferr.TraceSpec { return soferr.TraceSpec{Kind: kind} }

func benchmark(name string, instructions int) soferr.TraceSpec {
	return soferr.TraceSpec{Kind: soferr.TraceKindBenchmark, Benchmark: name, Instructions: instructions}
}

func comp(rate float64, count int, tr soferr.TraceSpec) soferr.ComponentSpec {
	return soferr.ComponentSpec{RatePerYear: rate, Count: count, Trace: tr}
}

// commensurate periods of the synthetic periodic components.
var periodicPeriods = []float64{1800, 3600, 7200, 14400}

// periodicSystem draws a system of k periodic components on
// commensurate periods, with 1-3 intervals and count 1-4 each.
func (g *gen) periodicSystem(k int) soferr.Spec {
	var s soferr.Spec
	for j := 0; j < k; j++ {
		period := g.pick(periodicPeriods)
		s.Components = append(s.Components, comp(g.logUniform(1e3, 1e5), 1+g.rng.IntN(4),
			periodic(period, g.intervals(period, 1+g.rng.IntN(3)))))
	}
	return s
}

// hotWorkingSet draws hot-queries' hotSpecs Specs: day, week, busyidle,
// periodic systems of 1-4 commensurate components, day beside a
// busyidle loop, and single simulated gzip/swim components. The counts
// per family are fixed, so every seed yields the same mix.
func (g *gen) hotWorkingSet() []soferr.Spec {
	var specs []soferr.Spec
	single := func(tr soferr.TraceSpec) soferr.Spec {
		return soferr.Spec{Components: []soferr.ComponentSpec{comp(g.logUniform(1e3, 1e5), 0, tr)}}
	}
	for i := 0; i < 6; i++ {
		specs = append(specs, single(kindOnly(soferr.TraceKindDay)))
	}
	for i := 0; i < 6; i++ {
		specs = append(specs, single(kindOnly(soferr.TraceKindWeek)))
	}
	for i := 0; i < 8; i++ {
		period := []float64{3600, 7200, 86400}[i%3]
		specs = append(specs, single(busyIdle(period, period*g.uniform(0.05, 0.95))))
	}
	for i := 0; i < 12; i++ {
		specs = append(specs, g.periodicSystem(1+i%4))
	}
	for i := 0; i < 8; i++ {
		period := 3600 * float64(1+i%3)
		specs = append(specs, soferr.Spec{Components: []soferr.ComponentSpec{
			comp(g.logUniform(1e3, 1e5), 0, kindOnly(soferr.TraceKindDay)),
			comp(g.logUniform(1e3, 1e5), 0, busyIdle(period, period*g.uniform(0.05, 0.95))),
		}})
	}
	for i := 0; i < 8; i++ {
		specs = append(specs, single(benchmark([]string{"gzip", "swim"}[i%2], 0)))
	}
	return specs
}

// hot builds hot-queries: every working-set Spec under five queries
// (exact MTTF, seeded fixed-trial fused MTTF, a three-method compare,
// reliability and a failure quantile), sent twice at warm-up, then in
// seeded uniform order.
func (g *gen) hot(n int) {
	specs := g.hotWorkingSet()
	var distinct []int32
	for _, spec := range specs {
		distinct = append(distinct,
			g.add(pathMTTF, "mttf-exact", mttfRequest{Spec: spec, Method: "montecarlo",
				estimateOptions: estimateOptions{Engine: "exact"}}),
			g.add(pathMTTF, "mttf-fused", mttfRequest{Spec: spec, Method: "montecarlo",
				estimateOptions: estimateOptions{Engine: "fused", Trials: hotFusedTrials,
					Seed: g.rng.Uint64() >> 11, Workers: 1}}),
			g.add(pathCompare, "compare", compareRequest{Spec: spec, Methods: methodsFor(spec),
				estimateOptions: estimateOptions{Engine: "exact"}}),
			g.add(pathReliability, "reliability", reliabilityRequest{Spec: spec,
				TSeconds: g.logUniform(1e2, 1e6)}),
			g.add(pathQuantile, "quantile", quantileRequest{Spec: spec, P: g.uniform(0.01, 0.99)}),
		)
	}
	g.st.warm = [][]int32{distinct, distinct}
	g.st.timed = make([]int32, n)
	for i := range g.st.timed {
		g.st.timed[i] = distinct[g.rng.IntN(len(distinct))]
	}
}

// coldKinds is one block of cold-specs' request mix, in ascending cost
// order: 18 of 20 requests are synthetic systems, 2 are fresh rates on
// the simulated benchmark traces.
var coldKinds = []struct {
	kind  string
	count int
}{
	{"day", 4}, {"week", 4}, {"busyidle", 5}, {"periodic", 5}, {"gzip", 1}, {"swim", 1},
}

// coldSpec draws one fresh Spec of the given cold-specs kind.
func (g *gen) coldSpec(kind string) soferr.Spec {
	rate := g.logUniform(1e3, 1e5)
	count := 1 + g.rng.IntN(4)
	one := func(tr soferr.TraceSpec) soferr.Spec {
		return soferr.Spec{Components: []soferr.ComponentSpec{comp(rate, count, tr)}}
	}
	switch kind {
	case "day":
		return one(kindOnly(soferr.TraceKindDay))
	case "week":
		return one(kindOnly(soferr.TraceKindWeek))
	case "busyidle":
		period := g.pick([]float64{3600, 7200, 86400})
		return one(busyIdle(period, period*g.uniform(0.05, 0.95)))
	case "periodic":
		return g.periodicSystem(1 + g.rng.IntN(4))
	default:
		return one(benchmark(kind, 0))
	}
}

// coldMTTF wraps a cold Spec in its exact-MTTF request.
func (g *gen) coldMTTF(kind string) int32 {
	return g.add(pathMTTF, kind, mttfRequest{Spec: g.coldSpec(kind), Method: "montecarlo",
		estimateOptions: estimateOptions{Engine: "exact"}})
}

// coldBlock appends one shuffled block of the cold mix.
func (g *gen) coldBlock(dst []int32) []int32 {
	var block []string
	for _, k := range coldKinds {
		for i := 0; i < k.count; i++ {
			block = append(block, k.kind)
		}
	}
	g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	for _, kind := range block {
		dst = append(dst, g.coldMTTF(kind))
	}
	return dst
}

// cold builds cold-specs: warm-up simulates both benchmarks and fills
// the LRU with coldWarmSpecs fresh Specs; every timed request then
// carries a Spec never sent before.
func (g *gen) cold(n int) {
	sims := []int32{g.coldMTTF("gzip"), g.coldMTTF("swim")}
	var fill []int32
	for len(fill) < coldWarmSpecs {
		fill = g.coldBlock(fill)
	}
	g.st.warm = [][]int32{sims, fill}
	for len(g.st.timed) < n {
		g.st.timed = g.coldBlock(g.st.timed)
	}
	g.st.timed = g.st.timed[:n]
}

// adaptiveSystem is one member of adaptive-sampling's working set.
type adaptiveSystem struct {
	kind string
	spec soferr.Spec
	// merged marks a system whose merged hazard table exists (Exact
	// answers it; Fused runs the batched kernel on it).
	merged bool
}

// adaptiveKinds is one block of adaptive-sampling's request mix, in
// ascending cost order. Merged systems are the minority; the rest are
// systems whose merge is refused, where Fused falls back per component.
var adaptiveKinds = []struct {
	kind    string
	systems int
	count   int
}{
	{"merged", 2, 3}, {"incommensurate", 4, 11}, {"combined", 2, 3}, {"bench-week", 2, 3},
}

// adaptiveWorkingSet draws the systems. Rates stay within bands where
// the time to failure spans several periods (coefficient of variation
// near 1), so every seed stops at adaptiveRound trials.
func (g *gen) adaptiveWorkingSet() []adaptiveSystem {
	var out []adaptiveSystem
	jitter := func(base float64) float64 { return base * g.uniform(0.8, 1.25) }
	for _, k := range adaptiveKinds {
		for i := 0; i < k.systems; i++ {
			var spec soferr.Spec
			switch k.kind {
			case "merged":
				// A 4-interval hourly loop beside a two-hour busy/idle
				// loop: a merged table of well over 8 segments.
				spec.Components = []soferr.ComponentSpec{
					comp(jitter(3e3), 0, periodic(3600, g.intervals(3600, 4))),
					comp(jitter(2e3), 0, busyIdle(7200, 7200*g.uniform(0.1, 0.2))),
				}
			case "incommensurate":
				spec.Components = []soferr.ComponentSpec{
					comp(jitter(3e3), 0, busyIdle(3600, 3600*g.uniform(0.25, 0.4))),
					comp(jitter(2e3), 0, busyIdle(3600*math.Sqrt2, 3600*math.Sqrt2*g.uniform(0.3, 0.45))),
				}
			case "combined":
				spec.Components = []soferr.ComponentSpec{
					comp(jitter(1e5), 0, kindOnly(soferr.TraceKindCombined)),
					comp(jitter(1e3), 0, busyIdle(3600, 3600*g.uniform(0.2, 0.4))),
				}
			case "bench-week":
				spec.Components = []soferr.ComponentSpec{
					comp(jitter(3e3), 0, benchmark([]string{"gzip", "swim"}[i%2], 0)),
					comp(jitter(2e3), 0, kindOnly(soferr.TraceKindWeek)),
				}
			}
			out = append(out, adaptiveSystem{kind: k.kind, spec: spec, merged: k.kind == "merged"})
		}
	}
	return out
}

// adaptiveMTTF wraps a system in its adaptive fused request.
func (g *gen) adaptiveMTTF(s adaptiveSystem, seed uint64) int32 {
	return g.add(pathMTTF, s.kind, mttfRequest{Spec: s.spec, Method: "montecarlo",
		estimateOptions: estimateOptions{Engine: "fused", TargetRelStdErr: adaptiveTarget,
			Workers: 1, Seed: seed}})
}

// adaptive builds adaptive-sampling: each request a fresh seed (a memo
// miss) on a working-set system, in shuffled blocks of the fixed mix.
func (g *gen) adaptive(n int) {
	systems := g.adaptiveWorkingSet()
	byKind := map[string][]adaptiveSystem{}
	for _, s := range systems {
		byKind[s.kind] = append(byKind[s.kind], s)
	}
	var warm []int32
	for _, s := range systems {
		for i := 0; i < 2; i++ {
			warm = append(warm, g.adaptiveMTTF(s, g.rng.Uint64()>>11))
		}
	}
	g.st.warm = [][]int32{warm}
	var block []string
	for _, k := range adaptiveKinds {
		for i := 0; i < k.count; i++ {
			block = append(block, k.kind)
		}
	}
	for len(g.st.timed) < n {
		g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			members := byKind[kind]
			s := members[g.rng.IntN(len(members))]
			g.st.timed = append(g.st.timed, g.adaptiveMTTF(s, g.rng.Uint64()>>11))
		}
	}
	g.st.timed = g.st.timed[:n]
}

// sweepGrid draws sweep-grid's axes: day, week, two busy/idle duty
// cycles and a reduced gzip simulation, crossed with six rates on a
// doubling ladder and four counts (so rate x count products repeat and
// the planner's dedup has work to do).
func (g *gen) sweepGrid() sweepRequest {
	d1 := g.uniform(0.1, 0.45)
	d2 := g.uniform(0.55, 0.9)
	base := g.logUniform(1e3, 1e4)
	req := sweepRequest{
		Name: "grid",
		Sources: []soferr.SourceSpec{
			{Name: "day", Trace: kindOnly(soferr.TraceKindDay)},
			{Name: "week", Trace: kindOnly(soferr.TraceKindWeek)},
			{Name: "duty-lo", Trace: busyIdle(3600, 3600*d1)},
			{Name: "duty-hi", Trace: busyIdle(3600, 3600*d2)},
			{Name: "gzip", Trace: benchmark("gzip", sweepInstructions)},
		},
		Counts:  []int{1, 2, 4, 8},
		Methods: compareMethods,
		Engine:  "exact",
		Workers: 1,
	}
	for j := 0; j < 6; j++ {
		req.RatesPerYear = append(req.RatesPerYear, base*math.Ldexp(1, j))
	}
	return req
}

// sweep builds sweep-grid: one grid per run, each request with a fresh
// base seed.
func (g *gen) sweep(n int) {
	grid := g.sweepGrid()
	next := func() int32 {
		r := grid
		r.Seed = g.rng.Uint64() >> 11
		return g.add(pathSweep, "sweep", r)
	}
	// The first request simulates the gzip source; the next 15 bring
	// the server to steady state and give set-up enough work that
	// process start-up noise does not dominate it.
	var warm []int32
	for i := 0; i < 16; i++ {
		warm = append(warm, next())
	}
	g.st.warm = [][]int32{warm[:1], warm[1:]}
	for len(g.st.timed) < n {
		g.st.timed = append(g.st.timed, next())
	}
}
