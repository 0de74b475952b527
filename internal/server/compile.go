package server

import (
	"errors"
	"time"

	"github.com/soferr/soferr"
	"github.com/soferr/soferr/internal/faultinject"
)

// compileQueueFactor: pending compiles (running + queued) are capped at
// this multiple of the concurrent-compile bound; past it new specs are
// refused with errCompileBacklog instead of queued.
const compileQueueFactor = 8

// errCompileBacklog is returned (and mapped to 503) when the compile
// queue is full: the request was well-formed, the server is overloaded.
var errCompileBacklog = errors.New("server busy: compile backlog full, retry later")

// Chaos injection points in the compile path (no-ops unless a
// faultinject schedule is armed — see internal/faultinject).
const (
	// fiCompilePoint fires in the detached compile just before the real
	// compile: Delay scripts a slow compile, Err scripts a failing one,
	// PanicMsg a crashing one.
	fiCompilePoint = "server.compile"
	// fiEvictPoint fires on the claiming request's path after its
	// compile succeeds; when its rule fires, that compile's entry is
	// evicted from the LRU — the eviction-races-compile scenario —
	// while its waiters still get the finished System.
	fiEvictPoint = "server.cache.evict"
)

// compiledSystem is the LRU's value: a compiled System and the wall
// time its compile took.
type compiledSystem struct {
	sys *soferr.System
	ns  int64
}

// compile is the LRU's build function. The cache runs it detached from
// the request that missed, and nothing interrupts it (the timing
// simulator has no preemption points): a requester whose deadline
// fires stops waiting, and the System still lands in the cache for the
// next request. So compileSem bounds the compiles running and pending
// those queued behind them, lest a client churning fresh specs under
// tiny deadlines pile up unbounded simulations. Defers release both,
// on a panic too.
func (s *Server) compile(spec soferr.Spec) (compiledSystem, error) {
	if s.pending.Add(1) > int64(cap(s.compileSem))*compileQueueFactor {
		s.pending.Add(-1)
		return compiledSystem{}, errCompileBacklog
	}
	defer s.pending.Add(-1)
	s.compileSem <- struct{}{}
	defer func() { <-s.compileSem }()
	start := time.Now()
	var c compiledSystem
	err := faultinject.Fire(fiCompilePoint)
	if err == nil {
		c.sys, err = s.comp.Compile(spec)
	}
	c.ns = time.Since(start).Nanoseconds()
	s.compiles.Add(1)
	s.compileNs.Add(c.ns)
	return c, err
}
