package main

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

var (
	errShortStat  = errors.New("short stat line")
	errNoCPULine  = errors.New("no cpu line in /proc/stat")
	errZeroDeltas = errors.New("no requests completed between the two /metrics snapshots")
)

// percentile returns the nearest-rank q-quantile (0 < q < 1) of an
// ascending sample and how many samples lie strictly beyond that rank.
func percentile(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// minBeyond is the fewest samples a reported percentile must have
// beyond it.
const minBeyond = 10

// highestPercentile is the highest of 0.99, 0.9, 0.5 that has at least
// minBeyond samples beyond it (0 when none has).
func highestPercentile(sorted []int64) float64 {
	for _, q := range []float64{0.99, 0.9, 0.5} {
		if _, beyond := percentile(sorted, q); beyond >= minBeyond {
			return q
		}
	}
	return 0
}

// median returns the median of xs (mean of the middle two for even
// lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTimes is the aggregate line of /proc/stat in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

// readCPUTimes parses the host's aggregate CPU line.
func readCPUTimes() (cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, fmt.Errorf("read /proc/stat: %w", err)
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return parseCPULine(line)
}

// parseCPULine parses "cpu user nice system idle iowait irq softirq
// steal ...": total sums every field, guest time included in user.
func parseCPULine(line string) (cpuTimes, error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, errNoCPULine
	}
	var t cpuTimes
	// Fields 1..8 are user..steal; guest fields (9, 10) are already
	// counted in user and nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("parse /proc/stat field %d: %w", i, err)
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, nil
}

// stealShare is the share of host CPU time stolen between two readings.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// quietSteal is the host steal share at or below which a slice of the
// timed window always counts as quiet.
const quietSteal = 0.01

// quietSlices marks the windowSlices slices of a window that the
// end-to-end metrics use, given each slice's host steal share (a slice
// without a reading counts as 0): every slice with at most quietSteal
// stolen, and the quieter half in any case, ties going to the earlier
// slice. On a shared virtual machine host steal comes in bursts of
// seconds, and each stolen wake-up stalls a closed-loop request far
// longer than its share of CPU time suggests, so a slice the host took
// CPU from measures the host rather than the server; a burst longer
// than half the window still shows in the figures.
func quietSlices(steal []float64) []bool {
	at := func(i int) float64 {
		if i < len(steal) {
			return steal[i]
		}
		return 0
	}
	order := make([]int, windowSlices)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(at(a), at(b)) })
	keep := make([]bool, windowSlices)
	for rank, i := range order {
		keep[i] = rank < (windowSlices+1)/2 || at(i) <= quietSteal
	}
	return keep
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func percents(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = 100 * x
	}
	return out
}

// selfCPUSeconds is the load generator's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// procCPUSeconds reads utime+stime from a /proc/<pid>/stat file.
func procCPUSeconds(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", path, err)
	}
	// The command name (field 2) may hold spaces; fields after the
	// closing parenthesis are space-separated. utime and stime are
	// fields 14 and 15, i.e. 11 and 12 after the parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errShortStat
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errShortStat
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse %s: %w", path, err)
	}
	return float64(ut+st) / clockTicks, nil
}

// serverMetrics is the subset of the server's /metrics document the
// benchmark reads.
type serverMetrics struct {
	Latency map[string]struct {
		Count   int64   `json:"count"`
		TotalMS float64 `json:"total_ms"`
	} `json:"latency"`
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"compile_cache"`
	Compiles       int64   `json:"compiles"`
	CompileMSTotal float64 `json:"compile_ms_total"`
}

// metricsDelta is the per-op view of two /metrics snapshots taken
// around a window of ops requests.
type metricsDelta struct {
	handlerUS                        float64 // mean handler time per request
	requests                         int64   // requests the server timed
	lruHits, lruMisses, lruEvictions float64 // per op
	compiles                         float64 // per op
	compileUS                        float64 // mean per compile (0 without compiles)
}

// perOp converts two snapshots into per-op figures.
func perOp(before, after serverMetrics, ops int) (metricsDelta, error) {
	var d metricsDelta
	var totalMS float64
	for ep, a := range after.Latency {
		b := before.Latency[ep]
		d.requests += a.Count - b.Count
		totalMS += a.TotalMS - b.TotalMS
	}
	if d.requests <= 0 || ops <= 0 {
		return d, errZeroDeltas
	}
	d.handlerUS = totalMS * 1000 / float64(d.requests)
	n := float64(ops)
	d.lruHits = float64(after.Cache.Hits-before.Cache.Hits) / n
	d.lruMisses = float64(after.Cache.Misses-before.Cache.Misses) / n
	d.lruEvictions = float64(after.Cache.Evictions-before.Cache.Evictions) / n
	compiles := after.Compiles - before.Compiles
	d.compiles = float64(compiles) / n
	if compiles > 0 {
		d.compileUS = (after.CompileMSTotal - before.CompileMSTotal) * 1000 / float64(compiles)
	}
	return d, nil
}
