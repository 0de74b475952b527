package turandot

import (
	"errors"
	"fmt"
	"math"

	"github.com/soferr/soferr/internal/isa"
	"github.com/soferr/soferr/internal/mem"
)

// Sentinel errors of this package; callers branch with errors.Is.
var (
	errEmptyProgram = errors.New("turandot: empty program")
)

// Sim is a trace-driven out-of-order timing simulator. Create one with
// New and call Run once per program; a Sim is not safe for concurrent
// use.
type Sim struct {
	cfg  Config
	hier *mem.Hierarchy
	bp   *predictor
}

// New builds a simulator for the given configuration.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, fmt.Errorf("turandot: %w", err)
	}
	return &Sim{
		cfg:  cfg,
		hier: hier,
		bp:   newPredictor(cfg.PredictorBits),
	}, nil
}

// notIssued is the completion time of an instruction that has not
// issued: it is later than every cycle, so "done by cycle c" needs no
// separate issued flag.
const notIssued = math.MaxInt64

// waitingInst is a dispatched instruction that has not issued, with the
// ids of its operands' producers (-1: an architectural value that no
// instruction in the program wrote before it).
type waitingInst struct {
	id         int64
	src1, src2 int64
}

// Functional-unit pools.
const (
	poolInt = iota
	poolFP
	poolLS
	poolBr
	numPools
)

// unitUse is how an instruction class uses its functional unit.
type unitUse struct {
	pool    int
	latency int64 // loads take theirs from the memory hierarchy instead
	occupy  int64 // how long the unit stays busy (unpipelined ops)
}

// unitUses returns each instruction class's unit, latency and
// occupancy on this configuration.
func (c Config) unitUses() [isa.Branch + 1]unitUse {
	return [...]unitUse{
		isa.IntALU: {poolInt, int64(c.IntALULatency), 1},
		isa.IntMul: {poolInt, int64(c.IntMulLatency), 1},
		isa.IntDiv: {poolInt, int64(c.IntDivLatency), int64(c.IntDivLatency)},
		isa.FPOp:   {poolFP, int64(c.FPLatency), 1},
		isa.FPDiv:  {poolFP, int64(c.FPDivLatency), 1},
		isa.Load:   {poolLS, 0, 1},
		isa.Store:  {poolLS, int64(c.StoreLatency), 1},
		isa.Branch: {poolBr, int64(c.BranchLatency), 1},
	}
}

// maxCyclesPerInst guards against livelock bugs: no realistic program
// takes 1000 cycles per instruction on this machine.
const maxCyclesPerInst = 1000

// Run simulates prog to completion and returns the timing result,
// including the masking traces of Section 4.1. It skips
// quiet cycles as the package documentation describes.
func (s *Sim) Run(prog []isa.Inst) (*Result, error) {
	if len(prog) == 0 {
		return nil, errEmptyProgram
	}
	for i := range prog {
		if err := prog[i].Validate(); err != nil {
			return nil, fmt.Errorf("turandot: instruction %d: %w", i, err)
		}
	}

	cfg := s.cfg
	n := int64(len(prog))
	maxCycles := n*maxCyclesPerInst + 10000
	uses := cfg.unitUses()

	var (
		// The reorder buffer holds the ids [headID, nextID) and the
		// fetch/decode queue [nextID, fetched): an instruction's id is
		// its program index, and fetch, dispatch and retirement all go
		// in program order.
		headID  = int64(0) // oldest in-flight id
		nextID  = int64(0) // next id to dispatch
		fetched = int64(0) // next program index to fetch

		// waiting holds the dispatched, unissued instructions, oldest
		// first.
		waiting = make([]waitingInst, 0, cfg.ROBSize)

		// renameProd[r] is the id of the most recent in-flight or
		// retired producer of architectural register r, or -1.
		renameProd [isa.NumRegs + 1]int64

		intDefsInFlight int
		fpDefsInFlight  int
		memOpsInFlight  int

		unitFree = [numPools][]int64{
			poolInt: make([]int64, cfg.IntUnits),
			poolFP:  make([]int64, cfg.FPUnits),
			poolLS:  make([]int64, cfg.LSUnits),
			poolBr:  make([]int64, cfg.BrUnits),
		}

		fetchBusyUntil int64 // icache miss / mispredict stall
		blockingBranch = int64(-1)
		curFetchLine   = uint64(1<<64 - 1)

		// doneAt[id] is the cycle instruction id completes, notIssued
		// until it issues. A consumer's operand is ready once its
		// producer's doneAt has come, the ROB head retires once its own
		// has, and the register-liveness post-pass reads it as the
		// write-back cycle.
		doneAt = make([]int64, n)
		// Per-instruction last reads for the register-liveness post-pass.
		lastRead = make([]int64, n)
		// Reads of pre-existing architectural values.
		initLastRead [isa.NumRegs + 1]int64

		// Busy runs of the decode, integer and floating-point units.
		decodeBusy, intBusy, fpBusy busyRuns

		stats Stats
	)
	for i := range renameProd {
		renameProd[i] = -1
	}
	for i := range doneAt {
		doneAt[i] = notIssued
		lastRead[i] = -1
	}
	for i := range initLastRead {
		initLastRead[i] = -1
	}

	intRenameCap := cfg.IntRenameRegs - isa.NumIntRegs
	fpRenameCap := cfg.FPRenameRegs - isa.NumFPRegs

	// recordRead notes, for the register-liveness post-pass, that the
	// value of reg produced by prod is read at cycle.
	recordRead := func(prod int64, reg isa.Reg, cycle int64) {
		if reg == isa.RegNone {
			return
		}
		if prod < 0 {
			if cycle > initLastRead[reg] {
				initLastRead[reg] = cycle
			}
		} else if cycle > lastRead[prod] {
			lastRead[prod] = cycle
		}
	}

	var cycle int64
	for cycle = 0; cycle < maxCycles && headID < n; cycle++ {
		moved := false // whether any stage changed state this cycle

		// --- Retire: up to one dispatch group of completed entries, in order.
		for k := 0; k < cfg.RetireWidth && headID < nextID && doneAt[headID] <= cycle; k++ {
			in := &prog[headID]
			if in.Dest != isa.RegNone {
				if in.Dest.IsInt() {
					intDefsInFlight--
				} else {
					fpDefsInFlight--
				}
			}
			if in.Class.IsMem() {
				memOpsInFlight--
			}
			stats.Retired++
			headID++
			moved = true
		}

		// --- Issue: oldest-first among waiting instructions with ready
		// operands and a free unit.
		kept := waiting[:0]
		for _, w := range waiting {
			if (w.src1 >= 0 && doneAt[w.src1] > cycle) || (w.src2 >= 0 && doneAt[w.src2] > cycle) {
				kept = append(kept, w)
				continue
			}
			in := &prog[w.id]
			use := uses[in.Class]
			pool := unitFree[use.pool]
			unit := -1
			for u := range pool {
				if pool[u] <= cycle {
					unit = u
					break
				}
			}
			if unit < 0 {
				kept = append(kept, w) // structural hazard; try younger ops (other classes)
				continue
			}
			latency := use.latency
			if in.Class == isa.Load {
				latency = int64(s.hier.DataLatency(in.Addr))
			} else if in.Class == isa.Store {
				// Stores probe the cache for timing state but complete
				// quickly; their latency is hidden by the store queue.
				s.hier.DataLatency(in.Addr)
			}
			pool[unit] = cycle + use.occupy
			done := cycle + latency
			doneAt[w.id] = done
			stats.Issued++
			moved = true

			recordRead(w.src1, in.Src1, cycle)
			recordRead(w.src2, in.Src2, cycle)

			// Busy accounting for the studied units (Section 4.1):
			// a unit is busy every cycle it is processing an instruction.
			switch {
			case in.Class.IsInt():
				intBusy.mark(cycle, done)
			case in.Class.IsFP():
				fpBusy.mark(cycle, done)
			}

			// A resolving branch unblocks fetch after its resolution.
			if in.Class == isa.Branch && w.id == blockingBranch {
				if done+1 > fetchBusyUntil {
					fetchBusyUntil = done + 1
				}
				blockingBranch = -1
			}
		}
		waiting = kept

		// --- Dispatch: move a group from the fetch queue into the ROB.
		var stalled *uint64 // the stall counter dispatch bumped, if any
		dispatched := 0
		// Decode takes one cycle: dispatch runs before fetch, so an
		// instruction fetched in cycle c dispatches in c+1 at the earliest.
		for dispatched < cfg.DispatchWidth && nextID < fetched {
			if nextID-headID >= int64(cfg.ROBSize) {
				stalled = &stats.StallROB
				break
			}
			in := &prog[nextID]
			if in.Dest != isa.RegNone {
				if in.Dest.IsInt() && intDefsInFlight >= intRenameCap {
					stalled = &stats.StallRename
					break
				}
				if in.Dest.IsFP() && fpDefsInFlight >= fpRenameCap {
					stalled = &stats.StallRename
					break
				}
			}
			if in.Class.IsMem() && memOpsInFlight >= cfg.MemQueueSize {
				stalled = &stats.StallMemQ
				break
			}

			w := waitingInst{id: nextID, src1: -1, src2: -1}
			if in.Src1 != isa.RegNone {
				w.src1 = renameProd[in.Src1]
			}
			if in.Src2 != isa.RegNone {
				w.src2 = renameProd[in.Src2]
			}
			if in.Dest != isa.RegNone {
				renameProd[in.Dest] = nextID
				if in.Dest.IsInt() {
					intDefsInFlight++
				} else {
					fpDefsInFlight++
				}
			}
			if in.Class.IsMem() {
				memOpsInFlight++
			}
			waiting = append(waiting, w)
			nextID++
			dispatched++
			stats.Dispatched++
		}
		if stalled != nil {
			*stalled++
		}
		if dispatched > 0 {
			decodeBusy.mark(cycle, cycle+1)
			moved = true
		}

		// --- Fetch: up to FetchWidth sequential instructions.
		if blockingBranch < 0 && cycle >= fetchBusyUntil {
			for w := 0; w < cfg.FetchWidth && fetched < n && fetched-nextID < int64(cfg.FetchQueueSize); w++ {
				moved = true // this iteration fetches or starts a stall
				in := &prog[fetched]
				line := in.PC >> 7 // 128-byte fetch line
				if line != curFetchLine {
					lat := int64(s.hier.FetchLatency(in.PC))
					curFetchLine = line
					if lat > int64(cfg.Mem.L1I.LatencyCycles) {
						// Miss: the line arrives after lat cycles.
						fetchBusyUntil = cycle + lat
						stats.FetchStallCycles += lat
						break
					}
				}
				stats.Fetched++
				if in.Class == isa.Branch {
					stats.Branches++
					pred := s.bp.predict(in.PC)
					s.bp.update(in.PC, in.Taken)
					if pred != in.Taken {
						stats.Mispredicts++
						blockingBranch = fetched
						fetched++
						break // stall until the branch resolves
					}
					if in.Taken {
						fetched++
						break // taken branch ends the fetch group
					}
				}
				fetched++
			}
		}

		// --- Skip the quiet cycles that follow a quiet cycle. Only
		// these times can end them: the ROB head's completion, the
		// earliest cycle a waiting instruction has both operands and a
		// free unit, and the end of a fetch stall. A waiting
		// instruction whose producer has not issued cannot issue before
		// something else moves, so it names no time.
		if !moved {
			next := maxCycles
			wake := func(t int64) {
				if t > cycle && t < next {
					next = t
				}
			}
			if headID < nextID {
				wake(doneAt[headID])
			}
			var unitAt [numPools]int64
			for p, pool := range unitFree {
				unitAt[p] = pool[0]
				for _, free := range pool[1:] {
					unitAt[p] = min(unitAt[p], free)
				}
			}
			for _, w := range waiting {
				t := unitAt[uses[prog[w.id].Class].pool]
				if w.src1 >= 0 {
					t = max(t, doneAt[w.src1])
				}
				if w.src2 >= 0 {
					t = max(t, doneAt[w.src2])
				}
				wake(t)
			}
			wake(fetchBusyUntil)
			if skipped := next - cycle - 1; skipped > 0 {
				if stalled != nil {
					*stalled += uint64(skipped)
				}
				cycle += skipped
			}
		}
	}

	if headID < n {
		return nil, fmt.Errorf("turandot: exceeded %d cycles with %d/%d retired (livelock?)",
			maxCycles, headID, n)
	}

	stats.Cycles = uint64(cycle)
	stats.Instructions = uint64(n)
	s.fillMemStats(&stats)

	res := &Result{
		Config: cfg,
		Stats:  stats,
	}
	var err error
	if res.Traces.Decode, err = decodeBusy.trace(cycle); err != nil {
		return nil, fmt.Errorf("turandot: decode trace: %w", err)
	}
	if res.Traces.Int, err = intBusy.trace(cycle); err != nil {
		return nil, fmt.Errorf("turandot: int trace: %w", err)
	}
	if res.Traces.FP, err = fpBusy.trace(cycle); err != nil {
		return nil, fmt.Errorf("turandot: fp trace: %w", err)
	}
	if res.Traces.RegFile, err = regLive(doneAt, lastRead, initLastRead[:], cycle, cfg.RegFileEntries); err != nil {
		return nil, fmt.Errorf("turandot: register-file trace: %w", err)
	}
	return res, nil
}

func (s *Sim) fillMemStats(st *Stats) {
	st.L1IHits, st.L1IMisses = s.hier.L1I.Hits(), s.hier.L1I.Misses()
	st.L1DHits, st.L1DMisses = s.hier.L1D.Hits(), s.hier.L1D.Misses()
	st.L2Hits, st.L2Misses = s.hier.L2.Hits(), s.hier.L2.Misses()
	st.ITLBMisses = s.hier.ITLB.Misses()
	st.DTLBMisses = s.hier.DTLB.Misses()
}
