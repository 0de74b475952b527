package soferr_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/soferr/soferr"
)

// estimatesEqual compares every field bit-for-bit, treating NaN as
// equal to NaN (the one case == cannot express).
func estimatesEqual(a, b soferr.Estimate) bool {
	feq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return a.Method == b.Method && feq(a.MTTF, b.MTTF) && feq(a.FIT, b.FIT) &&
		feq(a.StdErr, b.StdErr) && a.Trials == b.Trials && a.Seed == b.Seed &&
		a.Engine == b.Engine && a.Sampler == b.Sampler &&
		feq(a.TargetRelStdErr, b.TargetRelStdErr) && a.Cached == b.Cached
}

func roundTrip(t *testing.T, est soferr.Estimate) {
	t.Helper()
	data, err := json.Marshal(est)
	if err != nil {
		t.Fatalf("marshal %+v: %v", est, err)
	}
	var back soferr.Estimate
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if !estimatesEqual(est, back) {
		t.Errorf("round trip changed the estimate:\n in  %+v\n out %+v\n via %s", est, back, data)
	}
}

// TestEstimateJSONRoundTripFromQueries is the regression test for the
// confirmed PR 4 bug: json.Unmarshal(json.Marshal(est)) used to drop
// Method/MTTF and error on the string-encoded engine name. Every method
// must round-trip exactly, from real queries.
func TestEstimateJSONRoundTripFromQueries(t *testing.T) {
	ctx := context.Background()
	tr := mustBusyIdle(t, 10, 4)
	sys, err := soferr.NewSystem([]soferr.Component{{Name: "c", RatePerYear: 1e6, Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range soferr.Methods() {
		est, err := sys.MTTF(ctx, m,
			soferr.WithTrials(2000), soferr.WithSeed(7), soferr.WithEngine(soferr.Fused))
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, est)
	}
	// Cached Monte-Carlo estimates round-trip too (Cached = true).
	est, err := sys.MTTF(ctx, soferr.MonteCarlo,
		soferr.WithTrials(2000), soferr.WithSeed(7), soferr.WithEngine(soferr.Fused))
	if err != nil {
		t.Fatal(err)
	}
	if !est.Cached {
		t.Fatal("second identical query not served from cache")
	}
	roundTrip(t, est)

	// Sobol-sampler estimates record the sampler and round-trip it.
	qmc, err := sys.MTTF(ctx, soferr.MonteCarlo,
		soferr.WithTrials(2000), soferr.WithSeed(7),
		soferr.WithEngine(soferr.Fused), soferr.WithSampler(soferr.Sobol))
	if err != nil {
		t.Fatal(err)
	}
	if qmc.Sampler != soferr.Sobol {
		t.Fatalf("Sobol query recorded sampler %v", qmc.Sampler)
	}
	roundTrip(t, qmc)

	// Infinite-MTTF estimates (a system that cannot fail) round-trip
	// through the "+Inf" string encoding.
	idle, err := soferr.PeriodicTrace(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	never, err := soferr.NewSystem([]soferr.Component{{Name: "idle", RatePerYear: 5, Trace: idle}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []soferr.Method{soferr.AVFSOFR, soferr.SoftArch} {
		inf, err := never.MTTF(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(inf.MTTF, 1) {
			t.Fatalf("%v MTTF = %v, want +Inf", m, inf.MTTF)
		}
		roundTrip(t, inf)
	}
}

// legacyEstimateJSON is the map-based encoding Estimate.MarshalJSON
// used before it appended its keys by hand: json.Marshal sorts the map's
// keys, and every float goes through JSONFloat's own MarshalJSON. The
// appended encoding must equal it byte for byte, so every response that
// carries an estimate keeps its bytes.
func legacyEstimateJSON(e soferr.Estimate) ([]byte, error) {
	out := map[string]interface{}{
		"method":       e.Method.String(),
		"mttf_seconds": soferr.JSONFloat(e.MTTF),
		"fit":          soferr.JSONFloat(e.FIT),
	}
	if e.Method == soferr.MonteCarlo {
		out["stderr_seconds"] = soferr.JSONFloat(e.StdErr)
		out["trials"] = e.Trials
		out["seed"] = e.Seed
		out["engine"] = e.Engine.String()
		out["sampler"] = e.Sampler.String()
		out["cached"] = e.Cached
		if e.TargetRelStdErr != 0 {
			out["target_rel_stderr"] = soferr.JSONFloat(e.TargetRelStdErr)
		}
	}
	return json.Marshal(out)
}

// sameAsLegacy fails the test unless json.Marshal(est) equals the
// legacy map-based encoding byte for byte.
func sameAsLegacy(t *testing.T, est soferr.Estimate) {
	t.Helper()
	got, err := json.Marshal(est)
	if err != nil {
		t.Fatalf("marshal %+v: %v", est, err)
	}
	want, err := legacyEstimateJSON(est)
	if err != nil {
		t.Fatalf("legacy marshal %+v: %v", est, err)
	}
	if string(got) != string(want) {
		t.Errorf("encoding of %+v changed:\n got  %s\n want %s", est, got, want)
	}
}

// TestEstimateJSONRoundTripProperty fuzzes the encoder with randomized
// estimates for all three methods, including non-finite and signed-zero
// MTTF/FIT/StdErr/target values and every sampler, and asserts exact
// field recovery and byte identity with the legacy map-based encoding.
// Out-of-range methods, engines and samplers do not decode, so they are
// checked for byte identity only.
func TestEstimateJSONRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	specials := []float64{0, math.Copysign(0, -1), 1, 1e-300, 1e300, 1e21, 1e-7,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	randFloat := func() float64 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return math.Ldexp(rng.Float64(), rng.Intn(600)-300)
	}
	methods := soferr.Methods()
	engines := []soferr.Engine{soferr.Fused, soferr.Exact}
	samplers := []soferr.Sampler{soferr.DefaultSampler, soferr.PCG, soferr.Sobol}
	for i := 0; i < 500; i++ {
		m := methods[rng.Intn(len(methods))]
		est := soferr.Estimate{
			Method: m,
			MTTF:   randFloat(),
			FIT:    randFloat(),
		}
		if m == soferr.MonteCarlo {
			est.StdErr = randFloat()
			est.Trials = rng.Intn(1 << 20)
			est.Seed = rng.Uint64()
			est.Engine = engines[rng.Intn(len(engines))]
			est.Sampler = samplers[rng.Intn(len(samplers))]
			est.Cached = rng.Intn(2) == 0
			switch rng.Intn(3) {
			case 0:
				est.TargetRelStdErr = 1 / (2 + rng.Float64()*100)
			case 1:
				// A zero target of either sign is omitted, so -0
				// decodes as +0; -0 is checked for bytes below.
				if v := randFloat(); v != 0 {
					est.TargetRelStdErr = v
				}
			}
		}
		roundTrip(t, est)
		sameAsLegacy(t, est)
	}

	// Every float special in every float field, and the extreme integers.
	for _, v := range specials {
		roundTrip(t, soferr.Estimate{Method: soferr.SoftArch, MTTF: v, FIT: v})
		mc := soferr.Estimate{
			Method: soferr.MonteCarlo, MTTF: v, FIT: v, StdErr: v,
			Trials: math.MaxInt, Seed: math.MaxUint64, Sampler: soferr.DefaultSampler,
		}
		if v != 0 {
			mc.TargetRelStdErr = v
		}
		roundTrip(t, mc)
		sameAsLegacy(t, mc)
	}
	for _, est := range []soferr.Estimate{
		{Method: 0, MTTF: 1},
		{Method: soferr.Method(7), MTTF: math.Inf(1)},
		{Method: soferr.Method(-2), FIT: math.NaN()},
		{Method: soferr.MonteCarlo, Engine: soferr.Engine(9), Trials: -1},
		{Method: soferr.MonteCarlo, Engine: soferr.Engine(-3), Sampler: soferr.Sampler(5)},
		{Method: soferr.MonteCarlo, Sampler: soferr.Sampler(-1), TargetRelStdErr: math.Copysign(0, -1)},
	} {
		sameAsLegacy(t, est)
	}
}

func TestJSONFloatEncodings(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{`"+Inf"`, math.Inf(1)},
		{`"Inf"`, math.Inf(1)},
		{`"+Infinity"`, math.Inf(1)},
		{`"-Inf"`, math.Inf(-1)},
		{`"-Infinity"`, math.Inf(-1)},
		{`"nan"`, math.NaN()},
		{`"NaN"`, math.NaN()},
		{`"1.5"`, 1.5},
		{`2.25`, 2.25},
	}
	for _, c := range cases {
		var f soferr.JSONFloat
		if err := json.Unmarshal([]byte(c.in), &f); err != nil {
			t.Errorf("unmarshal %s: %v", c.in, err)
			continue
		}
		if got := float64(f); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("unmarshal %s = %v, want %v", c.in, got, c.want)
		}
	}
	var f soferr.JSONFloat
	if err := json.Unmarshal([]byte(`"bogus"`), &f); err == nil {
		t.Error("bogus float string accepted")
	}

	// Per encoding/json convention, null is a no-op for Estimate too.
	est := soferr.Estimate{Method: soferr.SoftArch, MTTF: 42}
	if err := json.Unmarshal([]byte(`null`), &est); err != nil {
		t.Errorf("unmarshal null: %v", err)
	}
	if est.MTTF != 42 {
		t.Errorf("null overwrote the estimate: %+v", est)
	}
}

// TestZeroMTTFEstimate is the regression test for the zero-MTTF FIT
// bug: an MTTF of zero must report an infinite failure rate, not the
// FIT = 0 that means "cannot fail", and RelStdErr must be 0 (not NaN)
// for deterministic zero-MTTF estimates.
func TestZeroMTTFEstimate(t *testing.T) {
	est := soferr.Estimate{Method: soferr.SoftArch, MTTF: 0, FIT: math.Inf(1)}
	if got := est.RelStdErr(); got != 0 {
		t.Errorf("deterministic zero-MTTF RelStdErr = %v, want 0", got)
	}
	roundTrip(t, est)

	// Stochastic zero-MTTF with zero spread is deterministic in effect.
	mc := soferr.Estimate{Method: soferr.MonteCarlo, MTTF: 0, StdErr: 0, Trials: 10}
	if got := mc.RelStdErr(); got != 0 {
		t.Errorf("zero-stderr zero-MTTF RelStdErr = %v, want 0", got)
	}

	// Finite estimates keep the usual ratio.
	fin := soferr.Estimate{Method: soferr.MonteCarlo, MTTF: 100, StdErr: 5}
	if got := fin.RelStdErr(); got != 0.05 {
		t.Errorf("RelStdErr = %v, want 0.05", got)
	}
	// Infinite estimates are perfectly known.
	inf := soferr.Estimate{Method: soferr.SoftArch, MTTF: math.Inf(1)}
	if got := inf.RelStdErr(); got != 0 {
		t.Errorf("infinite-MTTF RelStdErr = %v, want 0", got)
	}
}

// TestNameParsingCaseInsensitive covers the usability satellite: method
// and engine names parse case-insensitively through the single shared
// parser, and truly unknown names still produce the full rejection
// message.
func TestNameParsingCaseInsensitive(t *testing.T) {
	methodCases := map[string]soferr.Method{
		"MC": soferr.MonteCarlo, "MonteCarlo": soferr.MonteCarlo, "MONTECARLO": soferr.MonteCarlo,
		"AVF+SOFR": soferr.AVFSOFR, "AvfSofr": soferr.AVFSOFR,
		"SoftArch": soferr.SoftArch, "SOFTARCH": soferr.SoftArch,
	}
	for name, want := range methodCases {
		got, err := soferr.MethodByName(name)
		if err != nil || got != want {
			t.Errorf("MethodByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := soferr.MethodByName("warp"); err == nil {
		t.Error("unknown method accepted")
	} else if !strings.Contains(err.Error(), `"warp"`) ||
		!strings.Contains(err.Error(), "avf+sofr, montecarlo, or softarch") {
		t.Errorf("unknown-method message unhelpful: %v", err)
	}

	engineCases := map[string]soferr.Engine{
		"Fused": soferr.Fused, "FUSED": soferr.Fused,
		"exact": soferr.Exact, "Exact": soferr.Exact,
	}
	for name, want := range engineCases {
		got, err := soferr.EngineByName(name)
		if err != nil || got != want {
			t.Errorf("EngineByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := soferr.EngineByName("quantum"); err == nil {
		t.Error("unknown engine accepted")
	} else if !strings.Contains(err.Error(), `"quantum"`) ||
		!strings.Contains(err.Error(), "fused or exact") {
		t.Errorf("unknown-engine message unhelpful: %v", err)
	}

	samplerCases := map[string]soferr.Sampler{
		"": soferr.DefaultSampler, "pcg": soferr.PCG, "PCG": soferr.PCG,
		"sobol": soferr.Sobol, "Sobol": soferr.Sobol, "SOBOL": soferr.Sobol,
	}
	for name, want := range samplerCases {
		got, err := soferr.SamplerByName(name)
		if err != nil || got != want {
			t.Errorf("SamplerByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := soferr.SamplerByName("halton"); err == nil {
		t.Error("unknown sampler accepted")
	} else if !strings.Contains(err.Error(), `"halton"`) ||
		!strings.Contains(err.Error(), "pcg or sobol") {
		t.Errorf("unknown-sampler message unhelpful: %v", err)
	}
}

// TestInvalidArgumentSentinel: out-of-domain query arguments are
// tagged with ErrInvalidArgument so serving layers can classify them
// as caller mistakes without parsing messages.
func TestInvalidArgumentSentinel(t *testing.T) {
	ctx := context.Background()
	tr := mustBusyIdle(t, 10, 4)
	sys, err := soferr.NewSystem([]soferr.Component{{Name: "c", RatePerYear: 10, Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Reliability(ctx, -1); !errors.Is(err, soferr.ErrInvalidArgument) {
		t.Errorf("Reliability(-1) error %v is not ErrInvalidArgument", err)
	}
	if _, err := sys.FailureQuantile(ctx, 1.5); !errors.Is(err, soferr.ErrInvalidArgument) {
		t.Errorf("FailureQuantile(1.5) error %v is not ErrInvalidArgument", err)
	}
	if _, err := sys.Reliability(ctx, 86400); err != nil {
		t.Errorf("valid query tagged: %v", err)
	}
}

// randomQuery draws a Query over every field's domain: both engines and
// samplers, default and explicit trials, and valid adaptive targets.
func randomQuery(rng *rand.Rand) soferr.Query {
	q := soferr.Query{
		Engine:  []soferr.Engine{soferr.Fused, soferr.Exact}[rng.Intn(2)],
		Sampler: []soferr.Sampler{soferr.PCG, soferr.Sobol}[rng.Intn(2)],
		Trials:  rng.Intn(8192) - 1024,
		Seed:    rng.Uint64(),
		Workers: rng.Intn(9),
	}
	if rng.Intn(2) == 0 {
		q.TargetRelStdErr = rng.Float64() * 0.1
	}
	return q
}

// TestQueryJSONRoundTrip: a Query survives its wire form exactly, and
// the wire form spells engines and samplers by name.
func TestQueryJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		q := randomQuery(rng)
		data, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("marshal %+v: %v", q, err)
		}
		var back soferr.Query
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != q {
			t.Fatalf("round trip changed the query:\n in  %+v\n out %+v\n via %s", q, back, data)
		}
		if q.Engine == soferr.Exact && !strings.Contains(string(data), `"engine":"exact"`) {
			t.Fatalf("exact engine not spelled by name: %s", data)
		}
		if q.Sampler == soferr.Sobol && !strings.Contains(string(data), `"sampler":"sobol"`) {
			t.Fatalf("sobol sampler not spelled by name: %s", data)
		}
	}
	// Names decode case-insensitively; "" and absent fields are the
	// defaults; unknown names are errors that name them.
	var q soferr.Query
	if err := json.Unmarshal([]byte(`{"engine":"EXACT","sampler":"Sobol"}`), &q); err != nil ||
		q != (soferr.Query{Engine: soferr.Exact, Sampler: soferr.Sobol}) {
		t.Errorf("upper-case names decoded to %+v, %v", q, err)
	}
	q = soferr.Query{Engine: soferr.Exact, Sampler: soferr.Sobol}
	if err := json.Unmarshal([]byte(`{"engine":"","sampler":""}`), &q); err != nil || q != (soferr.Query{}) {
		t.Errorf(`"" names decoded to %+v, %v; want the defaults`, q, err)
	}
	for doc, name := range map[string]string{`{"engine":"quantum"}`: "quantum", `{"sampler":"halton"}`: "halton"} {
		if err := json.Unmarshal([]byte(doc), &q); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v, want one naming %q", doc, err, name)
		}
	}
	if _, err := json.Marshal(soferr.Query{Engine: soferr.Engine(9)}); err == nil {
		t.Error("an out-of-range engine marshaled")
	}
}

// TestQueryNormalizeIdempotent: the memo-key normalization is a
// projection, and it keeps exactly the settings that can change the
// answer.
func TestQueryNormalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 1000; i++ {
		q := randomQuery(rng)
		n := soferr.NormalizeQuery(q)
		if again := soferr.NormalizeQuery(n); again != n {
			t.Fatalf("normalize(%+v) = %+v, normalized again %+v", q, n, again)
		}
		if n.Workers != 0 {
			t.Fatalf("normalize(%+v) kept workers: %+v", q, n)
		}
		switch {
		case q.Engine == soferr.Exact:
			if n != (soferr.Query{Engine: soferr.Exact, Sampler: soferr.DefaultSampler}) {
				t.Fatalf("normalize(%+v) = %+v; want every exact query on one key", q, n)
			}
		case q.Trials <= 0 && n.Trials != soferr.DefaultTrials:
			t.Fatalf("normalize(%+v) trials = %d, want DefaultTrials", q, n.Trials)
		}
	}
}

// TestQueryEqualKeyEqualAnswer: Queries with equal normalizations hit
// one memo entry and get a bit-identical, Cached estimate; unequal
// ones do not share an entry.
func TestQueryEqualKeyEqualAnswer(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 40; i++ {
		sys, err := soferr.NewSystem([]soferr.Component{{Name: "c", RatePerYear: 1e6, Trace: mustBusyIdle(t, 10, 4)}})
		if err != nil {
			t.Fatal(err)
		}
		q := randomQuery(rng)
		q.Trials = 1 + rng.Intn(4096)
		// twin differs from q only in settings the key drops.
		twin := q
		twin.Workers = 1 + rng.Intn(4)
		if q.Engine == soferr.Exact {
			twin.Trials, twin.Seed = rng.Intn(5000)-1000, rng.Uint64()
			twin.Sampler = []soferr.Sampler{soferr.PCG, soferr.Sobol}[rng.Intn(2)]
			twin.TargetRelStdErr = rng.Float64() * 0.1
		}
		if soferr.NormalizeQuery(q) != soferr.NormalizeQuery(twin) {
			t.Fatalf("twins %+v and %+v normalize apart", q, twin)
		}
		first, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		second, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithQuery(twin))
		if err != nil {
			t.Fatal(err)
		}
		if first.Cached || !second.Cached {
			t.Fatalf("query %+v then twin %+v: cached %v, %v; want false, true", q, twin, first.Cached, second.Cached)
		}
		second.Cached = false
		if !estimatesEqual(first, second) {
			t.Fatalf("twin answer differs:\n q    %+v -> %+v\n twin %+v -> %+v", q, first, twin, second)
		}
		if q.Engine == soferr.Exact {
			continue
		}
		// A different seed is a different key: recomputed, not cached.
		other := q
		other.Seed++
		est, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithQuery(other))
		if err != nil {
			t.Fatal(err)
		}
		if est.Cached {
			t.Fatalf("query %+v answered from the entry of %+v", other, q)
		}
	}

	// Trials <= 0 means DefaultTrials: one entry for both spellings.
	sys, err := soferr.NewSystem([]soferr.Component{{Name: "c", RatePerYear: 1e6, Trace: mustBusyIdle(t, 10, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	q := soferr.Query{Trials: -5, Seed: 3, TargetRelStdErr: 0.05}
	first, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	q.Trials = soferr.DefaultTrials
	second, err := sys.MTTF(ctx, soferr.MonteCarlo, soferr.WithQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	second.Cached = !second.Cached
	if !estimatesEqual(first, second) {
		t.Errorf("trials -5 and DefaultTrials split the memo:\n %+v\n %+v", first, second)
	}
}
