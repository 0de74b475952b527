package turandot

import (
	"fmt"

	"github.com/soferr/soferr/internal/isa"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/units"
)

// referenceRun is the cycle-by-cycle simulation loop that Run replaced:
// every cycle it rescans the whole reorder buffer, and it never skips a
// cycle. It is kept, with its own busy recorder and register-liveness
// pass, as the oracle the equivalence tests hold Run to bit for bit.
func referenceRun(s *Sim, prog []isa.Inst) (*Result, error) {
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

	type robEntry struct {
		id       int64
		class    isa.Class
		dest     isa.Reg
		src1Prod int64 // producing instruction id, or -1 if value already ready
		src2Prod int64
		issued   bool
		issueAt  int64
		doneAt   int64
		addr     uint64
		pc       uint64
	}
	type fetchSlot struct {
		idx       int64 // index into the program
		fetchedAt int64
	}

	var (
		rob     = make([]robEntry, cfg.ROBSize)
		headID  = int64(0) // oldest in-flight id
		nextID  = int64(0) // next id to dispatch
		fetched = int64(0) // next program index to fetch

		fetchQ = make([]fetchSlot, 0, cfg.FetchQueueSize)

		// renameProd[r] is the id of the most recent in-flight or
		// retired producer of architectural register r, or -1.
		renameProd [isa.NumRegs + 1]int64

		intDefsInFlight int
		fpDefsInFlight  int
		memOpsInFlight  int

		intUnitFree = make([]int64, cfg.IntUnits)
		fpUnitFree  = make([]int64, cfg.FPUnits)
		lsUnitFree  = make([]int64, cfg.LSUnits)
		brUnitFree  = make([]int64, cfg.BrUnits)

		fetchBusyUntil int64 // icache miss / mispredict stall
		blockingBranch = int64(-1)
		curFetchLine   = uint64(1<<64 - 1)

		// Per-instruction records for the register-liveness post-pass.
		wbCycle  = make([]int64, n)
		lastRead = make([]int64, n)
		// Reads of pre-existing architectural values.
		initLastRead [isa.NumRegs + 1]int64

		busy  = newRefBusyRecorder(int(n))
		stats Stats
	)
	for i := range renameProd {
		renameProd[i] = -1
	}
	for i := range lastRead {
		lastRead[i] = -1
	}
	for i := range initLastRead {
		initLastRead[i] = -1
	}

	intRenameCap := cfg.IntRenameRegs - isa.NumIntRegs
	fpRenameCap := cfg.FPRenameRegs - isa.NumFPRegs

	// ready reports whether producer id's value is available at cycle.
	ready := func(prod, cycle int64) bool {
		if prod < 0 || prod < headID {
			return true // no producer, or producer retired
		}
		e := &rob[prod%int64(cfg.ROBSize)]
		return e.issued && e.doneAt <= cycle
	}

	retiredAll := func() bool { return headID == n }

	var cycle int64
	for cycle = 0; cycle < maxCycles; cycle++ {
		if retiredAll() {
			break
		}

		// --- Retire: up to one dispatch group of completed entries, in order.
		for k := 0; k < cfg.RetireWidth && headID < nextID; k++ {
			e := &rob[headID%int64(cfg.ROBSize)]
			if !e.issued || e.doneAt > cycle {
				break
			}
			if e.dest != isa.RegNone {
				if e.dest.IsInt() {
					intDefsInFlight--
				} else {
					fpDefsInFlight--
				}
			}
			if e.class.IsMem() {
				memOpsInFlight--
			}
			stats.Retired++
			headID++
		}

		// --- Issue: oldest-first among dispatched entries with ready
		// operands and a free unit.
		for id := headID; id < nextID; id++ {
			e := &rob[id%int64(cfg.ROBSize)]
			if e.issued {
				continue
			}
			if !ready(e.src1Prod, cycle) || !ready(e.src2Prod, cycle) {
				continue
			}
			var (
				pool    []int64
				latency int64
				occupy  int64 // how long the unit stays busy (unpipelined ops)
			)
			switch e.class {
			case isa.IntALU:
				pool, latency, occupy = intUnitFree, int64(cfg.IntALULatency), 1
			case isa.IntMul:
				pool, latency, occupy = intUnitFree, int64(cfg.IntMulLatency), 1
			case isa.IntDiv:
				pool, latency, occupy = intUnitFree, int64(cfg.IntDivLatency), int64(cfg.IntDivLatency)
			case isa.FPOp:
				pool, latency, occupy = fpUnitFree, int64(cfg.FPLatency), 1
			case isa.FPDiv:
				pool, latency, occupy = fpUnitFree, int64(cfg.FPDivLatency), 1
			case isa.Load:
				pool, latency, occupy = lsUnitFree, 0, 1 // latency from hierarchy below
			case isa.Store:
				pool, latency, occupy = lsUnitFree, int64(cfg.StoreLatency), 1
			case isa.Branch:
				pool, latency, occupy = brUnitFree, int64(cfg.BranchLatency), 1
			}
			unit := -1
			for u := range pool {
				if pool[u] <= cycle {
					unit = u
					break
				}
			}
			if unit < 0 {
				continue // structural hazard; try younger ops (other classes)
			}
			if e.class == isa.Load {
				latency = int64(s.hier.DataLatency(e.addr))
			} else if e.class == isa.Store {
				// Stores probe the cache for timing state but complete
				// quickly; their latency is hidden by the store queue.
				s.hier.DataLatency(e.addr)
			}
			pool[unit] = cycle + occupy
			e.issued = true
			e.issueAt = cycle
			e.doneAt = cycle + latency
			stats.Issued++

			// Record reads for the register-liveness post-pass.
			recordRead := func(prod int64, reg isa.Reg) {
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
			in := &prog[id]
			recordRead(e.src1Prod, in.Src1)
			recordRead(e.src2Prod, in.Src2)
			if e.dest != isa.RegNone {
				wbCycle[id] = e.doneAt
			}

			// Busy accounting for the studied units (Section 4.1):
			// a unit is busy every cycle it is processing an instruction.
			switch {
			case e.class.IsInt():
				busy.markInt(cycle, e.doneAt)
			case e.class.IsFP():
				busy.markFP(cycle, e.doneAt)
			}

			// A resolving branch unblocks fetch after its resolution.
			if e.class == isa.Branch && id == blockingBranch {
				if e.doneAt+1 > fetchBusyUntil {
					fetchBusyUntil = e.doneAt + 1
				}
				blockingBranch = -1
			}
		}

		// --- Dispatch: move a group from the fetch queue into the ROB.
		dispatched := 0
		for dispatched < cfg.DispatchWidth && len(fetchQ) > 0 {
			slot := fetchQ[0]
			if slot.fetchedAt >= cycle {
				break // decode takes one cycle
			}
			if nextID-headID >= int64(cfg.ROBSize) {
				stats.StallROB++
				break
			}
			in := &prog[slot.idx]
			if in.Dest != isa.RegNone {
				if in.Dest.IsInt() && intDefsInFlight >= intRenameCap {
					stats.StallRename++
					break
				}
				if in.Dest.IsFP() && fpDefsInFlight >= fpRenameCap {
					stats.StallRename++
					break
				}
			}
			if in.Class.IsMem() && memOpsInFlight >= cfg.MemQueueSize {
				stats.StallMemQ++
				break
			}

			id := nextID
			e := &rob[id%int64(cfg.ROBSize)]
			*e = robEntry{
				id:       id,
				class:    in.Class,
				dest:     in.Dest,
				src1Prod: -1,
				src2Prod: -1,
				addr:     in.Addr,
				pc:       in.PC,
			}
			if in.Src1 != isa.RegNone {
				e.src1Prod = renameProd[in.Src1]
			}
			if in.Src2 != isa.RegNone {
				e.src2Prod = renameProd[in.Src2]
			}
			if in.Dest != isa.RegNone {
				renameProd[in.Dest] = id
				if in.Dest.IsInt() {
					intDefsInFlight++
				} else {
					fpDefsInFlight++
				}
			}
			if in.Class.IsMem() {
				memOpsInFlight++
			}
			nextID++
			fetchQ = fetchQ[1:]
			dispatched++
			stats.Dispatched++
		}
		if dispatched > 0 {
			busy.markDecode(cycle)
		}

		// --- Fetch: up to FetchWidth sequential instructions.
		if blockingBranch < 0 && cycle >= fetchBusyUntil {
			for w := 0; w < cfg.FetchWidth && fetched < n && len(fetchQ) < cfg.FetchQueueSize; w++ {
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
				fetchQ = append(fetchQ, fetchSlot{idx: fetched, fetchedAt: cycle})
				stats.Fetched++
				if in.Class == isa.Branch {
					stats.Branches++
					pred := s.bp.predict(in.PC)
					s.bp.update(in.PC, in.Taken)
					if pred != in.Taken {
						stats.Mispredicts++
						blockingBranch = int64(fetched)
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
	}

	if !retiredAll() {
		return nil, fmt.Errorf("turandot: exceeded %d cycles with %d/%d retired (livelock?)",
			maxCycles, headID, n)
	}

	stats.Cycles = uint64(cycle)
	stats.Instructions = uint64(n)
	s.fillMemStats(&stats)

	decode, intU, fpU := busy.build(cycle)
	live := refRegLive(prog, wbCycle, lastRead, initLastRead[:], cycle, cfg.RegFileEntries)
	traces, err := refTraces(decode, intU, fpU, live)
	if err != nil {
		return nil, err
	}
	return &Result{Config: cfg, Stats: stats, Traces: *traces}, nil
}

// refTraces compresses the reference loop's per-cycle busy bits and
// register-liveness levels into masking traces at the base clock.
func refTraces(decode, intU, fpU []bool, regLive []float64) (*ComponentTraces, error) {
	const cycleSeconds = units.SecondsPerCycle
	var (
		t   ComponentTraces
		err error
	)
	if t.Decode, err = trace.FromBits(decode, cycleSeconds); err != nil {
		return nil, fmt.Errorf("turandot: decode trace: %w", err)
	}
	if t.Int, err = trace.FromBits(intU, cycleSeconds); err != nil {
		return nil, fmt.Errorf("turandot: int trace: %w", err)
	}
	if t.FP, err = trace.FromBits(fpU, cycleSeconds); err != nil {
		return nil, fmt.Errorf("turandot: fp trace: %w", err)
	}
	if t.RegFile, err = trace.FromLevels(regLive, cycleSeconds); err != nil {
		return nil, fmt.Errorf("turandot: register-file trace: %w", err)
	}
	return &t, nil
}

// refBusyRecorder is the reference loop's busy-bit recorder, which
// grows its bitmaps one bit at a time.
type refBusyRecorder struct {
	decode []bool
	intU   []bool
	fpU    []bool
}

func newRefBusyRecorder(instructions int) *refBusyRecorder {
	est := instructions * 2
	if est < 1024 {
		est = 1024
	}
	return &refBusyRecorder{
		decode: make([]bool, 0, est),
		intU:   make([]bool, 0, est),
		fpU:    make([]bool, 0, est),
	}
}

func refGrow(b []bool, upto int64) []bool {
	for int64(len(b)) <= upto {
		b = append(b, false)
	}
	return b
}

func (r *refBusyRecorder) markDecode(cycle int64) {
	r.decode = refGrow(r.decode, cycle)
	r.decode[cycle] = true
}

func (r *refBusyRecorder) markInt(from, to int64) {
	r.intU = refGrow(r.intU, to-1)
	for c := from; c < to; c++ {
		r.intU[c] = true
	}
}

func (r *refBusyRecorder) markFP(from, to int64) {
	r.fpU = refGrow(r.fpU, to-1)
	for c := from; c < to; c++ {
		r.fpU[c] = true
	}
}

// build trims the busy bitmaps to the final cycle count.
func (r *refBusyRecorder) build(cycles int64) (decode, intU, fpU []bool) {
	pad := func(bits []bool) []bool {
		bits = refGrow(bits, cycles-1)
		return bits[:cycles]
	}
	return pad(r.decode), pad(r.intU), pad(r.fpU)
}

// refRegLive is the reference per-cycle register liveness: an int32
// difference array of live values, prefix-summed and scaled.
func refRegLive(prog []isa.Inst, wbCycle, lastRead, initLastRead []int64, cycles int64, regFileEntries int) []float64 {
	diff := make([]int32, cycles+1)
	mark := func(from, to int64) {
		if to < from {
			return
		}
		if from < 0 {
			from = 0
		}
		if to >= cycles {
			to = cycles - 1
		}
		diff[from]++
		diff[to+1]--
	}
	for id := range prog {
		if prog[id].Dest == isa.RegNone {
			continue
		}
		if lastRead[id] >= 0 {
			mark(wbCycle[id], lastRead[id])
		}
	}
	for reg := range initLastRead {
		if initLastRead[reg] >= 0 {
			mark(0, initLastRead[reg])
		}
	}
	regLive := make([]float64, cycles)
	live := int32(0)
	for c := int64(0); c < cycles; c++ {
		live += diff[c]
		f := float64(live) / float64(regFileEntries)
		if f > 1 {
			f = 1
		}
		regLive[c] = f
	}
	return regLive
}
