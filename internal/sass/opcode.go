package sass

import "fmt"

// Op identifies an opcode; it is an index into the opcode table. Op 0 is
// invalid so the zero value of an Instr is recognizably uninitialized.
type Op uint16

// Category is the functional category of an opcode, used for reporting and
// for structuring the opcode table. It is distinct from Class, the
// fault-injection grouping.
type Category uint8

// Functional categories.
const (
	CatInvalid Category = iota
	CatFP32
	CatFP16
	CatFP64
	CatInteger
	CatConversion
	CatMovement
	CatPredicate
	CatLoadStore
	CatControl
	CatTexture
	CatSurface
	CatMisc
)

var categoryNames = [...]string{
	CatInvalid:    "invalid",
	CatFP32:       "fp32",
	CatFP16:       "fp16",
	CatFP64:       "fp64",
	CatInteger:    "integer",
	CatConversion: "conversion",
	CatMovement:   "movement",
	CatPredicate:  "predicate",
	CatLoadStore:  "load/store",
	CatControl:    "control",
	CatTexture:    "texture",
	CatSurface:    "surface",
	CatMisc:       "misc",
}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// OpFlags describe architectural properties of an opcode that the classifier
// and the execution engine consume.
type OpFlags uint16

// Opcode property flags.
const (
	FlagWritesGP OpFlags = 1 << iota // writes a general-purpose register
	FlagWritesPR                     // writes a predicate register
	FlagLoad                         // reads from memory
	FlagStore                        // writes to memory
	FlagFP32                         // FP32 arithmetic
	FlagFP64                         // FP64 arithmetic
	FlagControl                      // changes control flow
	FlagBarrier                      // synchronization
	FlagPair                         // destination is an even/odd register pair (64-bit result)
)

// ArchMask is a bit set of the architecture families an opcode exists in.
type ArchMask uint8

// Architecture families, Kepler through Ampere, matching the families the
// paper lists NVBitFI as supporting.
const (
	ArchKepler ArchMask = 1 << iota
	ArchMaxwell
	ArchPascal
	ArchVolta
	ArchAmpere
)

// ArchAll marks an opcode present in every supported family.
const ArchAll = ArchKepler | ArchMaxwell | ArchPascal | ArchVolta | ArchAmpere

// archVP marks Volta-and-later opcodes.
const archVP = ArchVolta | ArchAmpere

// archPreV marks pre-Volta-only opcodes.
const archPreV = ArchKepler | ArchMaxwell | ArchPascal

// Family identifies a single architecture family.
type Family uint8

// Families, ordered oldest to newest. Values start at one.
const (
	FamilyKepler Family = iota + 1
	FamilyMaxwell
	FamilyPascal
	FamilyVolta
	FamilyAmpere
)

var familyNames = [...]string{
	FamilyKepler:  "Kepler",
	FamilyMaxwell: "Maxwell",
	FamilyPascal:  "Pascal",
	FamilyVolta:   "Volta",
	FamilyAmpere:  "Ampere",
}

func (f Family) String() string {
	if int(f) < len(familyNames) && f >= FamilyKepler {
		return familyNames[f]
	}
	return fmt.Sprintf("Family(%d)", uint8(f))
}

// Mask returns the single-family ArchMask bit for f.
func (f Family) Mask() ArchMask { return 1 << (f - 1) }

// Families lists all supported families, oldest first.
func Families() []Family {
	return []Family{FamilyKepler, FamilyMaxwell, FamilyPascal, FamilyVolta, FamilyAmpere}
}

// SemKind selects the execution semantics of an opcode. Many opcodes share
// semantics and differ only in operand form or encoding (e.g. FADD and
// FADD32I); opcodes with SemNone are architecturally defined but not
// executable by the simulator and trap if reached.
type SemKind uint8

// Semantic kinds.
const (
	SemNone SemKind = iota
	SemFAdd
	SemFMul
	SemFFma
	SemFMnMx
	SemFSel
	SemFSet
	SemFSetP
	SemFChk
	SemMufu
	SemDAdd
	SemDMul
	SemDFma
	SemDMnMx
	SemDSetP
	SemHAdd2
	SemHMul2
	SemHFma2
	SemIAdd
	SemIAdd3
	SemIMad
	SemIMul
	SemIMnMx
	SemIAbs
	SemISetP
	SemISCAdd
	SemLea
	SemLop  // two-input logic op, .AND/.OR/.XOR/.PASS
	SemLop3 // three-input lookup-table logic
	SemShl
	SemShr
	SemShf
	SemPopc
	SemFlo
	SemBrev
	SemBmsk
	SemSgxt
	SemVAbsDiff
	SemSel
	SemPrmt
	SemMov
	SemS2R
	SemCS2R
	SemShfl
	SemVote
	SemP2R
	SemR2P
	SemPSetP
	SemPLop3
	SemF2I
	SemI2F
	SemF2F
	SemI2I
	SemFrnd
	SemLd      // memory load; space from opcode, width from modifier
	SemSt      // memory store
	SemLdc     // constant-bank load
	SemAtom    // atomic read-modify-write with result
	SemRed     // reduction (atomic without result)
	SemBar     // block barrier
	SemNopLike // MEMBAR, DEPBAR, WARPSYNC, YIELD, NANOSLEEP, fences: no-ops here
	SemNop
	SemBra
	SemBrx
	SemJmp
	SemExit
	SemCall
	SemRet
	SemKill
	SemBpt
	SemMatch
)

// MemSpace is the address space a load/store opcode targets.
type MemSpace uint8

// Address spaces.
const (
	SpaceNone MemSpace = iota
	SpaceGlobal
	SpaceShared
	SpaceLocal
	SpaceConst
	SpaceGeneric // LD/ST: resolved as global in this model
)

// OpInfo is the opcode-table row: static properties of one opcode.
type OpInfo struct {
	Name  string
	Cat   Category
	Flags OpFlags
	Sem   SemKind
	Space MemSpace // for load/store/atomic kinds
	Archs ArchMask
	// NumDst is the number of destination operands in assembly form.
	NumDst uint8
}

// WritesGP reports whether the opcode writes a general-purpose register.
func (oi *OpInfo) WritesGP() bool { return oi.Flags&FlagWritesGP != 0 }

// WritesPR reports whether the opcode writes a predicate register.
func (oi *OpInfo) WritesPR() bool { return oi.Flags&FlagWritesPR != 0 }

// HasDest reports whether the opcode writes any destination register.
func (oi *OpInfo) HasDest() bool { return oi.Flags&(FlagWritesGP|FlagWritesPR) != 0 }

// IsLoad reports whether the opcode reads memory into a register.
func (oi *OpInfo) IsLoad() bool { return oi.Flags&FlagLoad != 0 }

// In reports whether the opcode exists in family f.
func (oi *OpInfo) In(f Family) bool { return oi.Archs&f.Mask() != 0 }
