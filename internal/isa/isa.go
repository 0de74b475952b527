// Package isa defines the instruction representation consumed by the
// trace-driven timing simulator (package turandot). It is deliberately
// minimal: the simulator is trace-driven, so instructions carry their
// outcomes (effective addresses, branch directions) rather than being
// executed semantically — exactly the information a Turandot-style
// model needs for timing.
package isa

import "fmt"

// Class is an instruction class, determining the functional unit and
// latency an instruction uses.
type Class uint8

// Instruction classes. FP divide is pipelined on the POWER4-like
// configuration; integer divide is not (Table 1 of the paper).
const (
	IntALU Class = iota + 1 // integer add/sub/logic: FXU, 1 cycle
	IntMul                  // integer multiply: FXU, 4 cycles
	IntDiv                  // integer divide: FXU, 35 cycles, unpipelined
	FPOp                    // FP add/mul/etc: FPU, 5 cycles
	FPDiv                   // FP divide: FPU, 28 cycles, pipelined
	Load                    // memory load: LSU
	Store                   // memory store: LSU
	Branch                  // conditional branch: BRU
	numClasses
)

var classNames = [...]string{
	IntALU: "IntALU",
	IntMul: "IntMul",
	IntDiv: "IntDiv",
	FPOp:   "FPOp",
	FPDiv:  "FPDiv",
	Load:   "Load",
	Store:  "Store",
	Branch: "Branch",
}

// String returns the class name.
func (c Class) String() string {
	if int(c) < len(classNames) && classNames[c] != "" {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Valid reports whether c is a defined class.
func (c Class) Valid() bool { return c >= IntALU && c < numClasses }

// IsInt reports whether the class executes on an integer unit.
func (c Class) IsInt() bool { return c == IntALU || c == IntMul || c == IntDiv }

// IsFP reports whether the class executes on a floating-point unit.
func (c Class) IsFP() bool { return c == FPOp || c == FPDiv }

// IsMem reports whether the class is a memory operation.
func (c Class) IsMem() bool { return c == Load || c == Store }

// Reg names an architectural register. 0 means "none"; integer
// registers are 1..NumIntRegs and floating-point registers follow.
type Reg uint8

// Architectural register file shape.
const (
	// RegNone marks an absent operand.
	RegNone Reg = 0
	// NumIntRegs is the number of architectural integer registers.
	NumIntRegs = 32
	// NumFPRegs is the number of architectural FP registers.
	NumFPRegs = 32
	// NumRegs is the total number of addressable architectural registers
	// (excluding RegNone).
	NumRegs = NumIntRegs + NumFPRegs
)

// IntReg returns the i-th architectural integer register (0-based).
func IntReg(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register %d out of range", i))
	}
	return Reg(1 + i)
}

// FPReg returns the i-th architectural FP register (0-based).
func FPReg(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: FP register %d out of range", i))
	}
	return Reg(1 + NumIntRegs + i)
}

// IsInt reports whether r is an integer register.
func (r Reg) IsInt() bool { return r >= 1 && r <= NumIntRegs }

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r > NumIntRegs && r <= NumRegs }

// Index returns the dense 0-based index of the register, for use as an
// array subscript. RegNone has no index; callers must check first.
func (r Reg) Index() int {
	if r == RegNone {
		panic("isa: RegNone has no index")
	}
	return int(r) - 1
}

// Inst is one dynamic instruction in a trace. The two addresses come
// first so that the one-byte fields pack into a 24-byte instruction;
// a trace holds one per simulated instruction.
type Inst struct {
	// PC is the instruction's byte address, used for instruction-cache
	// and branch-predictor indexing.
	PC uint64
	// Addr is the effective byte address of a Load or Store.
	Addr uint64
	// Class selects functional unit and latency.
	Class Class
	// Dest is the destination register (RegNone for stores/branches).
	Dest Reg
	// Src1 and Src2 are source registers (RegNone when absent).
	Src1 Reg
	Src2 Reg
	// Taken is the resolved direction of a Branch.
	Taken bool
}

// Validate returns an error if the instruction is malformed.
func (in *Inst) Validate() error {
	if !in.Class.Valid() {
		return fmt.Errorf("isa: invalid class %d", in.Class)
	}
	for _, r := range [...]Reg{in.Dest, in.Src1, in.Src2} {
		if r > NumRegs {
			return fmt.Errorf("isa: register %d out of range", r)
		}
	}
	if in.Class == Store || in.Class == Branch {
		if in.Dest != RegNone {
			return fmt.Errorf("isa: %v cannot have a destination", in.Class)
		}
	}
	return nil
}
