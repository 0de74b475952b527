package soferr

import (
	"strings"
	"sync"
	"testing"
)

// syncLog is a Compiler.Log that concurrent simulations may share.
type syncLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestCompilerConcurrentBuildsSimulateOnce: concurrent BuildTrace calls
// for one benchmark, across its processor union and its unit traces,
// share one simulation and one union.
func TestCompilerConcurrentBuildsSimulateOnce(t *testing.T) {
	var log syncLog
	comp := &Compiler{Instructions: 5000, Log: &log}
	units := []string{UnitProcessor, UnitInt, UnitProcessor, UnitFP, UnitDecode, UnitProcessor, UnitRegFile, UnitProcessor}
	got := make([]Trace, len(units))
	var wg sync.WaitGroup
	for i, unit := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := comp.BuildTrace(TraceSpec{Kind: TraceKindBenchmark, Benchmark: "gzip", Unit: unit})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = tr
		}()
	}
	wg.Wait()
	if n := strings.Count(log.String(), "simulating gzip"); n != 1 {
		t.Errorf("gzip simulated %d times, want 1 (log: %q)", n, log.String())
	}
	for i, unit := range units {
		if unit == UnitProcessor && got[i] != got[0] {
			t.Errorf("request %d built its own processor union", i)
		}
	}
}
