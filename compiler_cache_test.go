package soferr

import (
	"errors"
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

// TestFlightCacheRetriesFailedBuild: a failed build is dropped, so the
// next request for its key builds again, and a success is kept.
func TestFlightCacheRetriesFailedBuild(t *testing.T) {
	var fc flightCache[int]
	key := simKey{bench: "flaky"}
	builds := 0
	build := func(v int, err error) func() (int, error) {
		return func() (int, error) {
			builds++
			return v, err
		}
	}
	boom := errors.New("boom")
	if _, err := fc.get(key, build(0, boom)); !errors.Is(err, boom) {
		t.Fatalf("first get: err = %v, want %v", err, boom)
	}
	if v, err := fc.get(key, build(7, nil)); err != nil || v != 7 {
		t.Fatalf("retry: got %d, %v, want 7", v, err)
	}
	if v, err := fc.get(key, build(8, nil)); err != nil || v != 7 || builds != 2 {
		t.Fatalf("cached get: got %d, %v after %d builds, want 7 after 2", v, err, builds)
	}
}

// TestFlightCacheEvictionKeepsInFlightResult: evicting an entry whose
// build is in flight neither takes its result from the waiter that
// started it nor, if it then fails, drops the newer entry that replaced
// it.
func TestFlightCacheEvictionKeepsInFlightResult(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{{"success", nil}, {"failure", errors.New("boom")}} {
		t.Run(tc.name, func(t *testing.T) {
			var fc flightCache[int]
			key := simKey{bench: "slow"}
			started, release := make(chan struct{}), make(chan struct{})
			type result struct {
				v   int
				err error
			}
			inFlight := make(chan result, 1)
			go func() {
				v, err := fc.get(key, func() (int, error) {
					close(started)
					<-release
					return 1, tc.err
				})
				inFlight <- result{v, err}
			}()
			<-started

			// Churn other keys through the cache until the in-flight
			// entry is evicted; each insert past the cap evicts one
			// arbitrary entry.
			fc.mu.Lock()
			old := fc.entries[key]
			fc.mu.Unlock()
			evicted := false
			for i := 0; i < 1<<16 && !evicted; i++ {
				fc.get(simKey{bench: "churn", seed: uint64(i)}, func() (int, error) { return 0, nil })
				fc.mu.Lock()
				evicted = fc.entries[key] != old
				if n := len(fc.entries); n > maxCompilerCacheEntries {
					t.Errorf("cache holds %d entries, cap %d", n, maxCompilerCacheEntries)
				}
				fc.mu.Unlock()
			}
			if !evicted {
				t.Fatal("the in-flight entry was never evicted")
			}
			// A request after the eviction builds its own entry.
			if v, err := fc.get(key, func() (int, error) { return 2, nil }); err != nil || v != 2 {
				t.Fatalf("post-eviction get: got %d, %v, want 2", v, err)
			}

			close(release)
			if got := <-inFlight; got.v != 1 || !errors.Is(got.err, tc.err) {
				t.Errorf("in-flight waiter got %d, %v, want 1, %v", got.v, got.err, tc.err)
			}
			v, err := fc.get(key, func() (int, error) { return 3, nil })
			if err != nil || v != 2 {
				t.Errorf("after the old build ended: got %d, %v, want the newer entry's 2", v, err)
			}
		})
	}
}
