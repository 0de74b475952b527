package main

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q      float64
		v      int64
		beyond int
	}{{0.5, 500, 500}, {0.99, 990, 10}, {0.999, 999, 1}, {0.001, 1, 999}} {
		v, beyond := percentile(xs, c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("q=%g: got (%d, %d), want (%d, %d)", c.q, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("empty sample: (%d, %d)", v, beyond)
	}
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{{1000, 0.99}, {999, 0.9}, {100, 0.9}, {99, 0.5}, {20, 0.5}, {19, 0}} {
		xs := make([]int64, c.n)
		if got := highestPercentile(xs); got != c.q {
			t.Errorf("n=%d: highest percentile %g, want %g", c.n, got, c.q)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median %g", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0}, // overlaps a: 10..50 covered once
		{name: "a.leaf", start: 12, end: 18, parent: 1},
		{name: "late", start: 90, end: 120, parent: 0}, // clipped to the root's end
		{name: "other", start: 0, end: 7, parent: -1},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 6, 30, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	by := selfByName(spans)
	if len(by["a"]) != 1 || by["a"][0] != 0.014 {
		t.Errorf("selfByName(a) = %v µs, want [0.014]", by["a"])
	}
}

func TestMetricsDeltaPerOp(t *testing.T) {
	var before, after serverMetrics
	before.Latency = map[string]struct {
		Count   int64   `json:"count"`
		TotalMS float64 `json:"total_ms"`
	}{"mttf": {Count: 10, TotalMS: 5}, "compare": {Count: 4, TotalMS: 2}}
	after.Latency = map[string]struct {
		Count   int64   `json:"count"`
		TotalMS float64 `json:"total_ms"`
	}{"mttf": {Count: 110, TotalMS: 9}, "compare": {Count: 104, TotalMS: 4}}
	before.Cache.Hits, after.Cache.Hits = 7, 207
	before.Cache.Misses, after.Cache.Misses = 3, 3
	before.Compiles, after.Compiles = 2, 12
	before.CompileMSTotal, after.CompileMSTotal = 1, 1.5
	d, err := perOp(before, after, 200)
	if err != nil {
		t.Fatal(err)
	}
	// 200 requests took 4+2 ms in the handler: 30 µs each.
	if math.Abs(d.handlerUS-30) > 1e-9 || d.requests != 200 {
		t.Errorf("handler %g µs over %d requests, want 30 over 200", d.handlerUS, d.requests)
	}
	if d.lruHits != 1 || d.lruMisses != 0 || d.compiles != 0.05 || math.Abs(d.compileUS-50) > 1e-9 {
		t.Errorf("per-op delta %+v", d)
	}
	if _, err := perOp(after, after, 200); err == nil {
		t.Error("no requests between snapshots is not an error")
	}
}

func TestParseCPULineAndSteal(t *testing.T) {
	a, err := parseCPULine("cpu  100 0 50 800 10 0 5 20 0 0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseCPULine("cpu  200 0 60 1500 10 0 5 25 0 0")
	if err != nil {
		t.Fatal(err)
	}
	// 815 ticks elapsed, 5 of them stolen.
	if got := stealShare(a, b); math.Abs(got-5.0/815) > 1e-12 {
		t.Errorf("steal share %g", got)
	}
	if _, err := parseCPULine("intr 1 2 3"); err == nil {
		t.Error("accepted a non-cpu line")
	}
}

func TestBinnedThroughputIsTheMedianSlice(t *testing.T) {
	w := &window{}
	l := &connLog{}
	w.logs[0], w.logs[1] = l, &connLog{}
	// One second in windowSlices slices: slice k completes k+1 ops, and
	// a failed op in the last slice does not count.
	width := sliceWidth(1)
	for k := int64(0); k < windowSlices; k++ {
		for j := int64(0); j <= k; j++ {
			l.ops = append(l.ops, op{status: 200, start: k * width, latency: 1})
		}
	}
	l.ops = append(l.ops, op{status: 500, start: (windowSlices - 1) * width})
	perSecond := 1e9 / float64(width)
	// Slices hold 1..windowSlices ops: the median slice holds (n+1)/2.
	want := float64(windowSlices+1) / 2 * perSecond
	if got := binnedThroughput(w, 1, nil); math.Abs(got-want) > 1e-9*want {
		t.Errorf("binned throughput %g, want %g", got, want)
	}
	// Only the kept slices count: the first two and the last hold 1, 2
	// and windowSlices ops.
	keep := make([]bool, windowSlices)
	keep[0], keep[1], keep[windowSlices-1] = true, true, true
	if got := binnedThroughput(w, 1, keep); math.Abs(got-2*perSecond) > 1e-9*perSecond {
		t.Errorf("binned throughput over kept slices %g, want %g", got, 2*perSecond)
	}
}

func TestQuietSlicesDropsStolenSlices(t *testing.T) {
	const n = windowSlices
	steal := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	pattern := func(keep []bool) string {
		var b strings.Builder
		for _, k := range keep {
			b.WriteString(map[bool]string{true: "k", false: "d"}[k])
		}
		return b.String()
	}
	for _, c := range []struct {
		name  string
		steal []float64
		want  string // one letter per slice: k kept, d dropped
	}{
		{"calm window keeps every slice",
			steal(func(i int) float64 { return float64(i%4) * 0.003 }), strings.Repeat("k", n)},
		{"a burst is dropped",
			steal(func(i int) float64 { return map[bool]float64{true: 0.12}[i >= 10 && i < 15] }),
			strings.Repeat("k", 10) + "ddddd" + strings.Repeat("k", n-15)},
		{"steady steal keeps the quieter half",
			steal(func(i int) float64 { return 0.05 + 0.01*float64(i%2) }), strings.Repeat("kd", n)[:n]},
		{"ties go to the earlier slice",
			steal(func(int) float64 { return 0.05 }), strings.Repeat("k", (n+1)/2) + strings.Repeat("d", n/2)},
		{"slices without a reading count as quiet",
			[]float64{0.3, 0.2, 0.1}, "ddd" + strings.Repeat("k", n-3)},
	} {
		keep := quietSlices(c.steal)
		if got := pattern(keep); got != c.want {
			t.Errorf("%s: kept\n%s, want\n%s", c.name, got, c.want)
		}
		if k := countTrue(keep); k < n/2 {
			t.Errorf("%s: kept %d slices, fewer than half", c.name, k)
		}
	}
}

func TestKeptOpsKeepsEveryFailure(t *testing.T) {
	w := &window{}
	l := &connLog{}
	w.logs[0], w.logs[1] = l, &connLog{}
	// A one-second window with one op completing in each slice; the op
	// in slice 3 failed, and one completing after the window belongs to
	// the last slice.
	width := sliceWidth(1)
	for k := int64(0); k < windowSlices; k++ {
		status := 200
		if k == 3 {
			status = 503
		}
		l.ops = append(l.ops, op{status: status, start: k * width, latency: 1000 + k})
	}
	l.ops = append(l.ops, op{status: 200, start: 99e7, latency: 5e7})
	keep := make([]bool, windowSlices)
	keep[0], keep[windowSlices-1] = true, true
	lat := latencies(keptOps(w, keep, 1))
	want := []int64{1000, 1000 + windowSlices - 1, 5e7, math.MaxInt64}
	if !slices.Equal(lat, want) {
		t.Errorf("kept latencies %v, want %v", lat, want)
	}
	if n := len(keptOps(w, nil, 1)); n != windowSlices+1 {
		t.Errorf("nil keep listed %d ops, want all %d", n, windowSlices+1)
	}
}

func TestSlicedP99IgnoresAStalledSlice(t *testing.T) {
	w := &window{}
	l := &connLog{}
	w.logs[0], w.logs[1] = l, &connLog{}
	// 10 slices of 1000 requests: latency 1..1000 µs in each, except
	// that the fourth slice stalls and every request in it takes 50 ms.
	for i := int64(0); i < 10000; i++ {
		lat := (i%1000 + 1) * 1000
		if i/1000 == 3 {
			lat = 50e6
		}
		l.ops = append(l.ops, op{status: 200, start: i * 1e6, latency: lat})
	}
	p99, k := slicedP99(keptOps(w, nil, 10))
	if k != 10 || p99 != 990e3 {
		t.Errorf("sliced p99 %g ns over %d slices, want 990000 over 10", p99, k)
	}
	// Below samplesPerSlice requests there is one slice: the plain p99.
	l.ops = l.ops[3000:4000]
	if p99, k := slicedP99(keptOps(w, nil, 10)); k != 1 || p99 != 50e6 {
		t.Errorf("single slice: %g over %d", p99, k)
	}
}
