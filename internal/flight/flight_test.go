package flight

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// get is Get followed by Wait.
func get[K comparable, V any](c *Cache[K, V], key K, build func() (V, error)) (V, error) {
	h, _ := c.Get(key, build)
	return h.Wait()
}

// TestCacheRetriesFailedBuild: a failed build is dropped, so the next
// request for its key builds again, and a success is kept.
func TestCacheRetriesFailedBuild(t *testing.T) {
	var c Cache[string, int]
	var builds atomic.Int64
	build := func(v int, err error) func() (int, error) {
		return func() (int, error) {
			builds.Add(1)
			return v, err
		}
	}
	boom := errors.New("boom")
	if _, err := get(&c, "flaky", build(0, boom)); !errors.Is(err, boom) {
		t.Fatalf("first get: err = %v, want %v", err, boom)
	}
	if v, err := get(&c, "flaky", build(7, nil)); err != nil || v != 7 {
		t.Fatalf("retry: got %d, %v, want 7", v, err)
	}
	if v, err := get(&c, "flaky", build(8, nil)); err != nil || v != 7 || builds.Load() != 2 {
		t.Fatalf("cached get: got %d, %v after %d builds, want 7 after 2", v, err, builds.Load())
	}
}

// TestCachePanicFailsEveryWaiter: a build that panics fails the caller
// that started it and a caller that joined while it ran, both with an
// error wrapping ErrPanic that names the panic value, and the next Get
// for the key builds again.
func TestCachePanicFailsEveryWaiter(t *testing.T) {
	var c Cache[string, int]
	release := make(chan struct{})
	first, hit := c.Get("k", func() (int, error) {
		<-release
		panic("chaos build")
	})
	if hit {
		t.Fatal("first Get reported a hit")
	}
	joined, hit := c.Get("k", func() (int, error) {
		t.Error("a second build ran while the first was in flight")
		return 0, nil
	})
	if !hit || joined != first {
		t.Fatalf("second Get: hit %v, same handle %v; want it to join the first build", hit, joined == first)
	}
	close(release)
	for i, h := range []*Handle[string, int]{first, joined} {
		v, err := h.Wait()
		if !errors.Is(err, ErrPanic) || !strings.Contains(err.Error(), "chaos build") || v != 0 {
			t.Errorf("waiter %d: got %d, %v; want 0 and an error wrapping ErrPanic that names the panic", i, v, err)
		}
	}
	if s := c.Stats(); s.Size != 0 {
		t.Errorf("the panicked entry is still cached: %+v", s)
	}
	h, hit := c.Get("k", func() (int, error) { return 5, nil })
	if v, err := h.Wait(); hit || err != nil || v != 5 {
		t.Errorf("Get after the panic: hit %v, got %d, %v; want a new build of 5", hit, v, err)
	}
}

// TestCacheEvictionKeepsInFlightResult: evicting an entry whose build
// is in flight neither takes its result from the waiter that started
// it nor, if it then fails, drops the newer entry that replaced it.
func TestCacheEvictionKeepsInFlightResult(t *testing.T) {
	const capacity = 4
	for _, tc := range []struct {
		name string
		err  error
	}{{"success", nil}, {"failure", errors.New("boom")}} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int, int](capacity)
			release := make(chan struct{})
			inFlight, _ := c.Get(-1, func() (int, error) {
				<-release
				return 1, tc.err
			})

			// Churn other keys through the cache until the in-flight
			// entry, now the least recently used, is evicted.
			for i := 0; i < capacity; i++ {
				if _, err := get(c, i, func() (int, error) { return 0, nil }); err != nil {
					t.Fatal(err)
				}
				if s := c.Stats(); s.Size > capacity {
					t.Errorf("cache holds %d entries, capacity %d", s.Size, capacity)
				}
			}
			if s := c.Stats(); s.Evictions != 1 {
				t.Fatalf("after churn: %+v, want the in-flight entry evicted", s)
			}
			// A request after the eviction builds its own entry.
			if v, err := get(c, -1, func() (int, error) { return 2, nil }); err != nil || v != 2 {
				t.Fatalf("post-eviction get: got %d, %v, want 2", v, err)
			}

			close(release)
			if v, err := inFlight.Wait(); v != 1 || !errors.Is(err, tc.err) {
				t.Errorf("in-flight waiter got %d, %v, want 1, %v", v, err, tc.err)
			}
			v, err := get(c, -1, func() (int, error) { return 3, nil })
			if err != nil || v != 2 {
				t.Errorf("after the old build ended: got %d, %v, want the newer entry's 2", v, err)
			}
		})
	}
}

// TestCacheConcurrentEviction: goroutines get and evict keys through a
// cache smaller than the key set. Every caller gets its key's value,
// each miss runs exactly one build, and the size stays bounded.
func TestCacheConcurrentEviction(t *testing.T) {
	const capacity, keys = 4, 16
	c := New[int, int](capacity)
	var builds atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := (g*7 + i) % keys
				h, _ := c.Get(key, func() (int, error) {
					builds.Add(1)
					return key * 10, nil
				})
				if i%5 == 0 {
					c.Evict(h)
				}
				if v, err := h.Wait(); err != nil || v != key*10 {
					t.Errorf("key %d: got %d, %v, want %d", key, v, err, key*10)
				}
				if s := c.Stats(); s.Size > capacity {
					t.Errorf("cache holds %d entries, capacity %d", s.Size, capacity)
				}
			}
		}()
	}
	wg.Wait()
	if s := c.Stats(); builds.Load() != s.Misses || s.Hits+s.Misses != 8*200 {
		t.Errorf("%d builds for %+v, want one build per miss and 1600 gets", builds.Load(), s)
	}
}

// TestCacheLRUEvictionAndStats: a hit makes its entry the most recently
// used, a miss past the capacity evicts the least recently used one,
// Evict removes only the handle its key still maps to, and Stats counts
// all of it.
func TestCacheLRUEvictionAndStats(t *testing.T) {
	c := New[string, string](2)
	value := func(v string) func() (string, error) {
		return func() (string, error) { return v, nil }
	}
	a, _ := c.Get("a", value("a"))
	get(c, "b", value("b"))
	if h, hit := c.Get("a", value("a2")); !hit || h != a {
		t.Fatalf("Get(a) again: hit %v, same handle %v", hit, h == a)
	}
	get(c, "c", value("c")) // evicts b, the least recently used
	if _, hit := c.Get("a", value("a3")); !hit {
		t.Error("a was evicted; want b, the least recently used entry")
	}
	if _, hit := c.Get("b", value("b2")); hit {
		t.Error("b is still cached past the capacity")
	}
	want := Stats{Hits: 2, Misses: 4, Evictions: 2, Size: 2, Capacity: 2}
	if got := c.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}

	c.Evict(a)
	c.Evict(a) // already gone: not counted again
	if h, hit := c.Get("a", value("a4")); hit || h == a {
		t.Fatal("Get(a) after Evict joined the evicted handle")
	}
	c.Evict(a) // the slot holds the newer handle, which stays
	want = Stats{Hits: 2, Misses: 5, Evictions: 3, Size: 2, Capacity: 2}
	if got := c.Stats(); got != want {
		t.Errorf("after Evict: stats = %+v, want %+v", got, want)
	}
	if v, err := a.Wait(); err != nil || v != "a" {
		t.Errorf("evicted handle's waiter got %q, %v, want a", v, err)
	}

	var zero Cache[int, int]
	if got := zero.Stats().Capacity; got != DefaultCapacity {
		t.Errorf("zero Cache capacity = %d, want %d", got, DefaultCapacity)
	}
}
