package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"testing"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/montecarlo"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/units"
)

// runSeconds is BENCHMARK.json's run_seconds: the longest window the
// streams must cover.
const runSeconds = 15

func mustGenerate(t *testing.T, workload string, seed uint64, seconds float64, windows int) *stream {
	t.Helper()
	st, err := generate(workload, seed, seconds, windows)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// flatten renders a stream's full request sequence as bytes.
func flatten(st *stream) []byte {
	var b bytes.Buffer
	emit := func(ri int32) {
		b.WriteString(st.reqs[ri].path)
		b.WriteByte(' ')
		b.Write(st.reqs[ri].body)
		b.WriteByte('\n')
	}
	for _, phase := range st.warm {
		for _, ri := range phase {
			emit(ri)
		}
	}
	for _, ri := range st.timed {
		emit(ri)
	}
	return b.Bytes()
}

func TestStreamsAreSeedDetermined(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			a := flatten(mustGenerate(t, w, 7, 1, 1))
			b := flatten(mustGenerate(t, w, 7, 1, 1))
			c := flatten(mustGenerate(t, w, 8, 1, 1))
			if !bytes.Equal(a, b) {
				t.Error("same seed gave different streams")
			}
			if bytes.Equal(a, c) {
				t.Error("different seeds gave the same stream")
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := generate("nope", 1, 1, 1); !errors.Is(err, errUnknownWorkload) {
		t.Fatalf("err = %v, want errUnknownWorkload", err)
	}
}

// specOf decodes the Spec of an estimate-endpoint request.
func specOf(t *testing.T, body []byte) soferr.Spec {
	t.Helper()
	var probe struct {
		Spec soferr.Spec `json:"spec"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatal(err)
	}
	return probe.Spec
}

func TestHotWorkingSetFitsTheLRU(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		st := mustGenerate(t, wlHot, seed, 1, 1)
		hashes := map[string]bool{}
		for _, rq := range st.reqs { // every request the stream can send
			hashes[specOf(t, rq.body).Hash()] = true
		}
		if len(hashes) != hotSpecs || len(hashes) >= serverCacheSize {
			t.Errorf("seed %d: %d distinct Spec hashes, want %d (< %d)", seed, len(hashes), hotSpecs, serverCacheSize)
		}
	}
}

func TestColdSpecsNeverRepeat(t *testing.T) {
	// The longest stream a run can send: a traced run's two windows.
	st := mustGenerate(t, wlCold, 1, runSeconds, 2)
	seen := map[string]bool{}
	n := 0
	for _, phase := range append(st.warm, st.timed) {
		for _, ri := range phase {
			var probe struct {
				Spec json.RawMessage `json:"spec"`
			}
			if err := json.Unmarshal(st.reqs[ri].body, &probe); err != nil {
				t.Fatal(err)
			}
			// The encoded Spec is its canonical encoding (Spec.Hash hashes
			// exactly these bytes), so distinct bytes are distinct hashes.
			if n < 1000 {
				sum := sha256.Sum256(probe.Spec)
				if want := "sha256:" + hex.EncodeToString(sum[:]); specOf(t, st.reqs[ri].body).Hash() != want {
					t.Fatalf("request %d: the encoded Spec is not its canonical encoding", n)
				}
			}
			if seen[string(probe.Spec)] {
				t.Fatalf("request %d repeats a Spec", n)
			}
			seen[string(probe.Spec)] = true
			n++
		}
	}
}

// mcSystem compiles a Spec into Monte-Carlo components.
func mcSystem(t *testing.T, comp *soferr.Compiler, spec soferr.Spec) ([]float64, []*trace.Piecewise, *montecarlo.Compiled) {
	t.Helper()
	var rates []float64
	var pieces []*trace.Piecewise
	var comps []montecarlo.Component
	for _, c := range spec.Components {
		tr, err := comp.BuildTrace(c.Trace)
		if err != nil {
			t.Fatal(err)
		}
		rate := units.PerYearToPerSecond(c.RatePerYear * float64(max(c.Count, 1)))
		comps = append(comps, montecarlo.Component{Rate: rate, Trace: tr})
		p, _ := tr.(*trace.Piecewise)
		rates, pieces = append(rates, rate), append(pieces, p)
	}
	mc, err := montecarlo.Compile(comps)
	if err != nil {
		t.Fatal(err)
	}
	return rates, pieces, mc
}

func TestAdaptiveWorkingSetClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates benchmark traces")
	}
	comp := &soferr.Compiler{}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, s := range newGen(wlAdaptive, seed).adaptiveWorkingSet() {
			rates, pieces, mc := mcSystem(t, comp, s.spec)
			_, exactErr := mc.ExactMTTF()
			if !s.merged {
				if !errors.Is(exactErr, montecarlo.ErrExactUnavailable) {
					t.Errorf("seed %d %s: ExactMTTF err = %v, want a refusal", seed, s.kind, exactErr)
				}
				continue
			}
			m, err := trace.NewMergedExposure(rates, pieces, 0)
			if err != nil || exactErr != nil {
				t.Fatalf("seed %d merged system: merge %v, exact %v", seed, err, exactErr)
			}
			if m.NumSegments() < 8 {
				t.Errorf("seed %d: merged table has %d segments, want >= 8", seed, m.NumSegments())
			}
		}
	}
}

func TestAdaptiveSystemsStopAtOneRound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs adaptive Monte-Carlo queries")
	}
	comp := &soferr.Compiler{}
	ctx := context.Background()
	for seed := uint64(1); seed <= 3; seed++ {
		st := mustGenerate(t, wlAdaptive, seed, 1, 1)
		// The warm-up requests and the first three mix blocks of the
		// timed stream, each with its own request seed.
		reqs := append(append([]int32(nil), st.warm[0]...), st.timed[:60]...)
		for _, ri := range reqs {
			var req mttfRequest
			if err := json.Unmarshal(st.reqs[ri].body, &req); err != nil {
				t.Fatal(err)
			}
			sys, err := comp.Compile(req.Spec)
			if err != nil {
				t.Fatal(err)
			}
			est, err := sys.MTTF(ctx, soferr.MonteCarlo, queryOptions(req.estimateOptions)...)
			if err != nil {
				t.Fatal(err)
			}
			if est.Trials != adaptiveRound {
				t.Errorf("seed %d %s request seed %d stopped at %d trials, want %d",
					seed, st.reqs[ri].kind, req.Seed, est.Trials, adaptiveRound)
			}
		}
	}
}

func TestMixSharesKeepPercentilesInsideOneKind(t *testing.T) {
	// Each reported percentile must sit inside one kind's share of the
	// mix (kinds in ascending cost order), clear of its edges. Hot and
	// sweep requests are one kind each.
	type kind struct {
		name  string
		count int
	}
	var cold, adaptive []kind
	for _, k := range coldKinds {
		cold = append(cold, kind{k.kind, k.count})
	}
	for _, k := range adaptiveKinds {
		adaptive = append(adaptive, kind{k.kind, k.count})
	}
	margin := map[float64]float64{0.5: 0.05, 0.99: 0.005}
	for name, mix := range map[string][]kind{wlCold: cold, wlAdaptive: adaptive} {
		total := 0
		for _, k := range mix {
			total += k.count
		}
		cum := 0.0
		for _, k := range mix {
			lo := cum
			cum += float64(k.count) / float64(total)
			for q, m := range margin {
				if q > lo && q < cum && (q-lo < m || cum-q < m) {
					t.Errorf("%s: p%g sits within %g of kind %s's edges [%g, %g]", name, 100*q, m, k.name, lo, cum)
				}
			}
		}
	}
}
