// Package mem models the memory hierarchy of the base POWER4-like
// processor (Table 1): set-associative write-allocate caches with true
// LRU replacement, and fully-associative LRU TLBs. The model is a
// hit/miss timing model only — no data is stored — which is all a
// trace-driven timing simulator needs.
package mem

import (
	"errors"
	"fmt"
	"math/bits"
)

// Sentinel errors of this package; callers branch with errors.Is.
var (
	errEmptyTLB   = errors.New("mem: TLB needs at least one entry")
	errBadLatency = errors.New("mem: non-positive memory latency")
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the line size.
	LineBytes int
	// Ways is the set associativity (1 = direct mapped).
	Ways int
	// LatencyCycles is the access latency on a hit at this level.
	LatencyCycles int
}

// Validate checks structural sanity: power-of-two line size and a whole
// number of sets.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("mem: non-positive cache geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: line size %d not a power of two", c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("mem: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	sets := lines / c.Ways
	if sets == 0 || sets*c.Ways != lines {
		return fmt.Errorf("mem: %d lines not divisible into %d ways", lines, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: set count %d not a power of two", sets)
	}
	return nil
}

// Cache is a set-associative cache with true LRU replacement.
type Cache struct {
	cfg       CacheConfig
	sets      int
	indexBits int
	offBits   int
	tags      []uint64 // sets x ways
	valid     []bool
	age       []uint64 // LRU stamps
	clock     uint64

	hits   uint64
	misses uint64
}

// NewCache builds a cache from a validated configuration.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		indexBits: bits.TrailingZeros(uint(sets)),
		offBits:   bits.TrailingZeros(uint(cfg.LineBytes)),
		tags:      make([]uint64, lines),
		valid:     make([]bool, lines),
		age:       make([]uint64, lines),
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Access looks up addr, updating LRU state, and reports whether it hit.
// On a miss the line is allocated (write-allocate for stores too).
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	line := addr >> uint(c.offBits)
	set := int(line) & (c.sets - 1)
	tag := line >> uint(c.indexBits)
	base := set * c.cfg.Ways

	victim := base
	oldest := c.age[base]
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.age[i] = c.clock
			c.hits++
			return true
		}
		if !c.valid[i] {
			victim = i
			oldest = 0
		} else if c.age[i] < oldest {
			victim = i
			oldest = c.age[i]
		}
	}
	c.tags[victim] = tag
	c.valid[victim] = true
	c.age[victim] = c.clock
	c.misses++
	return false
}

// Hits returns the number of hits recorded so far.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of misses recorded so far.
func (c *Cache) Misses() uint64 { return c.misses }

// TLBConfig describes a fully-associative translation buffer.
type TLBConfig struct {
	// Entries is the number of mappings held.
	Entries int
	// PageBytes is the page size.
	PageBytes int
	// MissPenaltyCycles is the table-walk cost added on a miss.
	MissPenaltyCycles int
}

// Validate checks the configuration.
func (c TLBConfig) Validate() error {
	if c.Entries <= 0 {
		return errEmptyTLB
	}
	if c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("mem: page size %d not a positive power of two", c.PageBytes)
	}
	return nil
}

// TLB is a fully-associative LRU translation buffer. A map finds a
// resident page's entry, and the entries form a list from most to least
// recently used, so a lookup and an eviction each take constant time.
type TLB struct {
	cfg      TLBConfig
	pageBits int
	entry    map[uint64]int32 // resident page -> its index in pages
	pages    []uint64
	// prev and next link the entries in recency order; -1 ends the
	// list at mru and lru.
	prev, next []int32
	mru, lru   int32

	hits   uint64
	misses uint64
}

// NewTLB builds a TLB from a validated configuration.
func NewTLB(cfg TLBConfig) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &TLB{
		cfg:      cfg,
		pageBits: bits.TrailingZeros(uint(cfg.PageBytes)),
		entry:    make(map[uint64]int32, cfg.Entries),
		pages:    make([]uint64, cfg.Entries),
		prev:     make([]int32, cfg.Entries),
		next:     make([]int32, cfg.Entries),
		mru:      -1,
		lru:      -1,
	}, nil
}

// Config returns the TLB's configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Access translates addr, updating LRU state, and reports a hit.
func (t *TLB) Access(addr uint64) bool {
	page := addr >> uint(t.pageBits)
	if e, ok := t.entry[page]; ok {
		if e != t.mru {
			t.unlink(e)
			t.pushFront(e)
		}
		t.hits++
		return true
	}
	e := int32(len(t.entry))
	if int(e) == len(t.pages) { // full: evict the least recently used
		e = t.lru
		delete(t.entry, t.pages[e])
		t.unlink(e)
	}
	t.pages[e] = page
	t.entry[page] = e
	t.pushFront(e)
	t.misses++
	return false
}

func (t *TLB) unlink(e int32) {
	p, n := t.prev[e], t.next[e]
	if p >= 0 {
		t.next[p] = n
	} else {
		t.mru = n
	}
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.lru = p
	}
}

func (t *TLB) pushFront(e int32) {
	t.prev[e], t.next[e] = -1, t.mru
	if t.mru >= 0 {
		t.prev[t.mru] = e
	} else {
		t.lru = e
	}
	t.mru = e
}

// Hits returns the number of hits recorded so far.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the number of misses recorded so far.
func (t *TLB) Misses() uint64 { return t.misses }

// Hierarchy bundles the Table 1 memory system: split L1s, a unified L2,
// main memory, and the two TLBs. It returns access latencies in cycles.
type Hierarchy struct {
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	ITLB *TLB
	DTLB *TLB
	// MemLatencyCycles is the contentionless main-memory latency.
	MemLatencyCycles int
}

// HierarchyConfig configures a Hierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2     CacheConfig
	ITLB, DTLB       TLBConfig
	MemLatencyCycles int
}

// NewHierarchy builds the full memory system.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1i, err := NewCache(cfg.L1I)
	if err != nil {
		return nil, fmt.Errorf("L1I: %w", err)
	}
	l1d, err := NewCache(cfg.L1D)
	if err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	itlb, err := NewTLB(cfg.ITLB)
	if err != nil {
		return nil, fmt.Errorf("ITLB: %w", err)
	}
	dtlb, err := NewTLB(cfg.DTLB)
	if err != nil {
		return nil, fmt.Errorf("DTLB: %w", err)
	}
	if cfg.MemLatencyCycles <= 0 {
		return nil, errBadLatency
	}
	return &Hierarchy{
		L1I: l1i, L1D: l1d, L2: l2,
		ITLB: itlb, DTLB: dtlb,
		MemLatencyCycles: cfg.MemLatencyCycles,
	}, nil
}

// FetchLatency returns the instruction-fetch latency for addr in cycles.
func (h *Hierarchy) FetchLatency(addr uint64) int {
	lat := 0
	if !h.ITLB.Access(addr) {
		lat += h.ITLB.Config().MissPenaltyCycles
	}
	if h.L1I.Access(addr) {
		return lat + h.L1I.Config().LatencyCycles
	}
	if h.L2.Access(addr) {
		return lat + h.L2.Config().LatencyCycles
	}
	return lat + h.MemLatencyCycles
}

// DataLatency returns the data-access latency for addr in cycles.
func (h *Hierarchy) DataLatency(addr uint64) int {
	lat := 0
	if !h.DTLB.Access(addr) {
		lat += h.DTLB.Config().MissPenaltyCycles
	}
	if h.L1D.Access(addr) {
		return lat + h.L1D.Config().LatencyCycles
	}
	if h.L2.Access(addr) {
		return lat + h.L2.Config().LatencyCycles
	}
	return lat + h.MemLatencyCycles
}
