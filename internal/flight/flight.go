// Package flight is a bounded LRU of single-flight builds: the query
// server's compiled Systems and soferr.Compiler's benchmark
// simulations and processor unions each live in one.
//
// A miss caches a Handle for its key and runs the key's build once, on
// a goroutine of its own; every caller asking for the key while it is
// cached shares that build. A build that fails or panics is dropped,
// so the next Get for its key builds again, and a panic reaches every
// waiter as an error wrapping ErrPanic. Eviction only forgets an entry:
// callers holding its Handle still get its result.
//
//soferr:contained
package flight

import (
	"container/list"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// ErrPanic tags a build that panicked. The error every waiter gets
// wraps it with the panic value on its first line and the build
// goroutine's stack on the lines after it.
var ErrPanic = errors.New("flight: build panicked")

// DefaultCapacity bounds a zero Cache.
const DefaultCapacity = 64

// Cache is a bounded LRU of single-flight builds keyed by K. The zero
// value is ready to use and holds up to DefaultCapacity entries. A
// Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	ll       list.List // front = most recently used; holds *Handle[K, V]
	m        map[K]*list.Element
	stats    Stats
}

// Handle is one key's build. Its result is set before Done closes.
type Handle[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error
}

// Stats is a snapshot of a Cache's counters. Evictions counts entries
// pushed out by the capacity or removed by Evict, not failed builds.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
}

// New returns a Cache holding up to capacity entries (DefaultCapacity
// when capacity <= 0).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity}
}

// Done returns a channel that is closed when the build ends.
func (h *Handle[K, V]) Done() <-chan struct{} { return h.done }

// Wait blocks until the build ends and returns its result.
func (h *Handle[K, V]) Wait() (V, error) {
	<-h.done
	return h.val, h.err
}

// Get returns key's handle and whether the key was cached already. On
// a miss it caches a new handle, evicts the least recently used entry
// past the capacity, and starts build on a goroutine of its own.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (h *Handle[K, V], hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*Handle[K, V]), true
	}
	if c.m == nil {
		c.m = make(map[K]*list.Element)
	}
	c.stats.Misses++
	h = &Handle[K, V]{key: key, done: make(chan struct{})}
	c.m[key] = c.ll.PushFront(h)
	for c.ll.Len() > c.limit() {
		c.drop(c.ll.Back().Value.(*Handle[K, V]))
		c.stats.Evictions++
	}
	go func() {
		// A failed entry is dropped before Done closes, so a waiter that
		// retries on the error starts a new build.
		defer func() {
			if rec := recover(); rec != nil {
				var zero V
				h.val, h.err = zero, fmt.Errorf("%w: %v\n%s", ErrPanic, rec, debug.Stack())
			}
			if h.err != nil {
				c.mu.Lock()
				c.drop(h)
				c.mu.Unlock()
			}
			close(h.done)
		}()
		h.val, h.err = build()
	}()
	return h, false
}

// Evict removes h's entry, counting an eviction, if h's key still maps
// to h. Callers holding h still get its result.
func (c *Cache[K, V]) Evict(h *Handle[K, V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.drop(h) {
		c.stats.Evictions++
	}
}

// Stats returns the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size, s.Capacity = c.ll.Len(), c.limit()
	return s
}

// drop removes h's entry if h's key still maps to h: once h is evicted,
// a newer handle may hold the key, and it must stay. c.mu is held.
func (c *Cache[K, V]) drop(h *Handle[K, V]) bool {
	el, ok := c.m[h.key]
	if !ok || el.Value != h {
		return false
	}
	c.ll.Remove(el)
	delete(c.m, h.key)
	return true
}

func (c *Cache[K, V]) limit() int {
	if c.capacity > 0 {
		return c.capacity
	}
	return DefaultCapacity
}
