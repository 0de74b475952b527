package mem

import (
	"testing"

	"github.com/soferr/soferr/internal/xrand"
)

func newCache(t *testing.T, size, line, ways, lat int) *Cache {
	t.Helper()
	c, err := NewCache(CacheConfig{SizeBytes: size, LineBytes: line, Ways: ways, LatencyCycles: lat})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{},
		{SizeBytes: 1024, LineBytes: 48, Ways: 1},   // line not power of two
		{SizeBytes: 1000, LineBytes: 64, Ways: 1},   // size not multiple
		{SizeBytes: 1024, LineBytes: 64, Ways: 5},   // lines not divisible
		{SizeBytes: 64 * 3, LineBytes: 64, Ways: 1}, // sets not power of two
		{SizeBytes: -1, LineBytes: 64, Ways: 1},     // negative
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
	good := CacheConfig{SizeBytes: 32 * 1024, LineBytes: 128, Ways: 2, LatencyCycles: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("Table 1 L1D config rejected: %v", err)
	}
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := newCache(t, 1024, 64, 2, 1)
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x1030) { // same 64-byte line
		t.Error("same-line access missed")
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 2,1", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 64B lines, 256B total => 2 sets. Addresses mapping to set 0
	// with distinct tags: 0x000, 0x080, 0x100 (line = addr>>6, set = line&1).
	c := newCache(t, 256, 64, 2, 1)
	c.Access(0x000) // miss, fills way 0
	c.Access(0x080) // miss, fills way 1
	c.Access(0x000) // hit, refreshes LRU
	c.Access(0x100) // miss, evicts 0x080 (LRU)
	if !c.Access(0x000) {
		t.Error("0x000 should have survived (was MRU)")
	}
	if c.Access(0x080) {
		t.Error("0x080 should have been evicted")
	}
}

func TestCacheDirectMappedConflict(t *testing.T) {
	// Direct-mapped 128B, 64B lines => 2 sets; 0x000 and 0x080 conflict.
	c := newCache(t, 128, 64, 1, 1)
	c.Access(0x000)
	c.Access(0x080)
	if c.Access(0x000) {
		t.Error("conflicting line should have been evicted")
	}
}

func TestCacheFullyUtilized(t *testing.T) {
	// Working set equal to capacity: after warmup, everything hits.
	c := newCache(t, 1024, 64, 4, 1)
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 1024; a += 64 {
			c.Access(a)
		}
	}
	if c.Hits() != 16 || c.Misses() != 16 {
		t.Errorf("hits=%d misses=%d, want 16,16", c.Hits(), c.Misses())
	}
}

func TestTLBValidation(t *testing.T) {
	if err := (TLBConfig{Entries: 0, PageBytes: 4096}).Validate(); err == nil {
		t.Error("zero entries should fail")
	}
	if err := (TLBConfig{Entries: 4, PageBytes: 1000}).Validate(); err == nil {
		t.Error("non-power-of-two page should fail")
	}
	if err := (TLBConfig{Entries: 128, PageBytes: 4096}).Validate(); err != nil {
		t.Errorf("Table 1 TLB config rejected: %v", err)
	}
}

func TestTLBLRU(t *testing.T) {
	tlb, err := NewTLB(TLBConfig{Entries: 2, PageBytes: 4096, MissPenaltyCycles: 30})
	if err != nil {
		t.Fatal(err)
	}
	tlb.Access(0 * 4096)
	tlb.Access(1 * 4096)
	tlb.Access(0 * 4096) // refresh page 0
	tlb.Access(2 * 4096) // evict page 1
	if !tlb.Access(0 * 4096) {
		t.Error("page 0 evicted despite MRU")
	}
	if tlb.Access(1 * 4096) {
		t.Error("page 1 should have been evicted")
	}
	if tlb.Hits() != 2 {
		t.Errorf("hits = %d, want 2", tlb.Hits())
	}
}

func TestTLBSamePage(t *testing.T) {
	tlb, err := NewTLB(TLBConfig{Entries: 4, PageBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	tlb.Access(100)
	if !tlb.Access(4000) { // same page
		t.Error("same-page access missed")
	}
}

func table1Hierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(HierarchyConfig{
		L1I:              CacheConfig{SizeBytes: 64 * 1024, LineBytes: 128, Ways: 1, LatencyCycles: 1},
		L1D:              CacheConfig{SizeBytes: 32 * 1024, LineBytes: 128, Ways: 2, LatencyCycles: 1},
		L2:               CacheConfig{SizeBytes: 1024 * 1024, LineBytes: 128, Ways: 4, LatencyCycles: 10},
		ITLB:             TLBConfig{Entries: 128, PageBytes: 4096, MissPenaltyCycles: 30},
		DTLB:             TLBConfig{Entries: 128, PageBytes: 4096, MissPenaltyCycles: 30},
		MemLatencyCycles: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyLatencies(t *testing.T) {
	h := table1Hierarchy(t)
	// Cold access: TLB miss (30) + L1 miss + L2 miss -> memory (77).
	if got := h.DataLatency(0x10000); got != 30+77 {
		t.Errorf("cold data latency = %d, want 107", got)
	}
	// Warm: everything hits -> 1 cycle.
	if got := h.DataLatency(0x10000); got != 1 {
		t.Errorf("warm data latency = %d, want 1", got)
	}
	// Evict from L1D but not L2: stream enough distinct lines through
	// the same L1 set, then return. L1D has 128 sets; lines mapping to
	// set 0 are 128*128 bytes apart.
	stride := uint64(128 * 128)
	for i := uint64(1); i <= 8; i++ {
		h.DataLatency(0x10000 + i*stride)
	}
	if got := h.DataLatency(0x10000); got != 10 {
		t.Errorf("L2-hit latency = %d, want 10", got)
	}
}

func TestHierarchyFetchPath(t *testing.T) {
	h := table1Hierarchy(t)
	if got := h.FetchLatency(0x0); got != 30+77 {
		t.Errorf("cold fetch = %d, want 107", got)
	}
	if got := h.FetchLatency(0x40); got != 1 { // same 128B line, same page
		t.Errorf("warm fetch = %d, want 1", got)
	}
}

func TestHierarchyConfigErrors(t *testing.T) {
	_, err := NewHierarchy(HierarchyConfig{})
	if err == nil {
		t.Error("empty config should fail")
	}
}

// scanTLB is the linear-scan LRU TLB that TLB replaced: valid bits and
// age stamps per entry, a full scan per access. TLB must report the
// same hit or miss on every access.
type scanTLB struct {
	pageBits int
	pages    []uint64
	valid    []bool
	age      []uint64
	clock    uint64
}

func (t *scanTLB) access(addr uint64) bool {
	t.clock++
	page := addr >> uint(t.pageBits)
	victim := 0
	oldest := t.age[0]
	for i := range t.pages {
		if t.valid[i] && t.pages[i] == page {
			t.age[i] = t.clock
			return true
		}
		if !t.valid[i] {
			victim = i
			oldest = 0
		} else if t.age[i] < oldest {
			victim = i
			oldest = t.age[i]
		}
	}
	t.pages[victim] = page
	t.valid[victim] = true
	t.age[victim] = t.clock
	return false
}

func TestTLBMatchesLinearScan(t *testing.T) {
	r := xrand.New(11)
	for _, entries := range []int{1, 2, 3, 8, 128} {
		// Page windows below, at and above the capacity, so that the
		// streams mix hits, cold misses and evictions.
		for _, window := range []int{entries / 2, entries, entries + 1, 2 * entries, 8 * entries} {
			cfg := TLBConfig{Entries: entries, PageBytes: 4096}
			tlb, err := NewTLB(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := &scanTLB{pageBits: 12, pages: make([]uint64, entries),
				valid: make([]bool, entries), age: make([]uint64, entries)}
			var misses uint64
			for i := 0; i < 20000; i++ {
				addr := uint64(r.Intn(window+1))<<12 | uint64(r.Intn(4096))
				if i%3 == 0 {
					addr = uint64(i%(window+1)) << 12 // a cyclic sweep: LRU's worst case
				}
				got, want := tlb.Access(addr), ref.access(addr)
				if got != want {
					t.Fatalf("entries %d, window %d, access %d (page %d): hit %v, linear scan %v",
						entries, window, i, addr>>12, got, want)
				}
				if !want {
					misses++
				}
			}
			if tlb.Misses() != misses || tlb.Hits()+misses != 20000 {
				t.Errorf("entries %d, window %d: counters %d hits %d misses, want %d misses",
					entries, window, tlb.Hits(), tlb.Misses(), misses)
			}
		}
	}
}
