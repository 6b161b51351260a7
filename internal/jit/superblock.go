package jit

import (
	"herajvm/internal/isa"
)

// Superblock memoizes the static execution effects of a straight-line
// run of compiled code beginning at one instruction index. The VM's
// executor uses it to fast-forward a whole run in one step — one clock advance, one per-class cycle update, one retired-
// instruction bump — instead of dispatching instruction by instruction,
// with semantics byte-identical to per-instruction stepping.
//
// A block ends at (exclusive) the first instruction that can call,
// return, allocate, synchronise, throw, or trap outside the memory
// instructions it absorbs; a control transfer may terminate a block
// inclusively — an unconditional goto (static target, fixed cost) or
// one conditional branch, whose outcome the executor evaluates from
// the block's own final stack and whose branch-model bookkeeping
// (predictor update, penalty) it mirrors exactly. Division by a
// preceding nonzero constant is admitted (it cannot trap), but such an
// instruction can never *start* a block: a branch could land on it
// with a computed divisor on the stack, losing the guarantee.
type Superblock struct {
	// Len is the number of instructions the block covers. 0 means no
	// block starts at this index (the instruction is impure, or is a
	// guarded divide whose no-trap proof needs its predecessor).
	Len int32
	// Target is the Code index execution continues at after the block:
	// the trailing goto's destination, or entry+Len for fallthrough.
	// When End is a conditional kind, Target is the taken destination
	// and the not-taken path falls through to entry+Len.
	Target int32
	// End classifies the block's terminal control transfer: EndFall for
	// fallthrough or a trailing goto (Target is static either way), or
	// the conditional-branch kind whose outcome the replay must decide.
	End uint8
	// Cond is a conditional terminal's condition code (the branch
	// instruction's A operand).
	Cond int32
	// Cycles is the summed static cost of the block's instructions;
	// ClassCycles buckets the same total by operation class.
	Cycles      uint64
	ClassCycles [isa.NumClasses]uint64
	// Entry is how many operands pushed before the block it consumes
	// (a block entered mid-expression pops them). The replay addresses
	// stack slots from its base, entry SP minus Entry, so those operands
	// are ordinary slots 0..Entry-1.
	Entry int32
	// StackDelta is the operand-stack depth above the base after the
	// block: the final SP is base + StackDelta.
	StackDelta int32

	// FirstLen is the instruction count of the block's first pure
	// segment — the whole block when it absorbs no memory instructions,
	// 0 when it starts with one. Cycles/ClassCycles likewise cover only
	// that first segment; the executor charges it up front, and each
	// absorbed memory instruction then charges itself (plus its dynamic
	// cache cost) and the segment that follows it (Segs) as the replay
	// crosses it.
	FirstLen int32

	// Micro is the block's slot-addressed replay program; LFlags/SFlags
	// are the deferred local and stack reference-flag writes that follow
	// it, and MaxDepth the deepest base-relative stack slot it touches.
	// FlagBuf is the scratch the replay resolves flags into: the entry
	// slots' flag snapshot plus the longest local-flag list.
	Micro    []MicroOp
	LFlags   []FlagWrite
	SFlags   []FlagWrite
	MaxDepth int32
	FlagBuf  int32

	// Bounds/Segs/Mats/BLFlags/BSFlags describe the block's absorbed
	// memory instructions: per-boundary metadata, the pure segment after
	// each boundary, and the shadow materialisations plus flag snapshots
	// that rebuild exact stepped frame state when the replay must hand
	// back to the dispatcher mid-block (quantum expiry or a trap).
	Bounds  []MemBound
	Segs    []Seg
	Mats    []MicroOp
	BLFlags []FlagWrite
	BSFlags []FlagWrite
}

// Seg is the pure segment following one absorbed memory instruction:
// its static cost vector and instruction count, charged in one step
// right after the memory instruction commits.
type Seg struct {
	Cycles      uint64
	ClassCycles [isa.NumClasses]uint64
	Len         int32
}

// MemBound is the executor-facing metadata for one absorbed memory
// instruction. The replay charges the instruction's static cost from
// here, reads its operand descriptors from the paired micro-op, and on
// any early exit (deadline, trap) uses the recorded materialisation
// and flag-snapshot ranges to restore the exact frame state
// per-instruction stepping would show at that point.
type MemBound struct {
	// RelIdx is the instruction's Code index relative to the block
	// entry; Cost/Class its static charge.
	RelIdx int32
	Cost   uint32
	Class  isa.OpClass
	// Kind/Flags carry the instruction's A/B operands (element kind or
	// field slot, and the volatile/ref flag bits).
	Kind  int32
	Flags int32
	// Stack depths relative to the block's base: at the instruction
	// (operands pushed), after a trap's pops, and after the instruction
	// completes.
	SPAtOp, SPTrap, SPAfter int32
	// Mats ranges: [MatLo, MatOpLo) materialises the live values below
	// the operands (enough for a resume at the *next* instruction);
	// [MatOpLo, MatHi) adds the operands themselves (a resume at this
	// instruction). Lf/Sf ranges are the matching local/stack
	// reference-flag snapshots in BLFlags/BSFlags.
	MatLo, MatOpLo, MatHi  int32
	LfLo, LfHi, SfLo, SfHi int32
}

// End kinds. EndFall covers plain fallthrough and the trailing
// unconditional goto; the conditional kinds match the four
// conditional-branch opcodes. A block never *contains* a branch — a
// conditional terminal is always its last instruction, counted in Len,
// Cycles and StackDelta (the branch pops its operands).
const (
	EndFall uint8 = iota
	EndIf
	EndIfCmpI
	EndIfCmpRef
	EndIfNull
)

// pureOp reports whether op can always join a superblock: it cannot
// trap, branch, call, return, or touch heap, caches, monitors, the
// allocator or the branch predictor. Operand-stack and local-variable
// traffic, non-trapping ALU work and conversions qualify; integer
// divide/remainder do not (division by zero traps) unless guarded by a
// constant divisor, which guardedDiv admits separately. The shuffles
// swap, dup_x1 and dup_x2 are left to step: lowering them would move a
// value below its slot, and no compiler or workload in the repository
// emits them.
func pureOp(op isa.Op) bool {
	switch op {
	case isa.OpNop, isa.OpPushConst, isa.OpLoadLocal, isa.OpStoreLocal,
		isa.OpPop, isa.OpPop2, isa.OpDup, isa.OpDup2, isa.OpIncLocal,
		isa.OpAddI, isa.OpSubI, isa.OpMulI, isa.OpNegI, isa.OpAndI,
		isa.OpOrI, isa.OpXorI, isa.OpShlI, isa.OpShrI, isa.OpUShrI,
		isa.OpAddL, isa.OpSubL, isa.OpMulL, isa.OpNegL, isa.OpAndL,
		isa.OpOrL, isa.OpXorL, isa.OpShlL, isa.OpShrL, isa.OpUShrL,
		isa.OpCmpL,
		isa.OpAddF, isa.OpSubF, isa.OpMulF, isa.OpDivF, isa.OpNegF,
		isa.OpRemF, isa.OpCmpF,
		isa.OpAddD, isa.OpSubD, isa.OpMulD, isa.OpDivD, isa.OpNegD,
		isa.OpRemD, isa.OpCmpD,
		isa.OpI2L, isa.OpI2F, isa.OpI2D, isa.OpL2I, isa.OpL2F, isa.OpL2D,
		isa.OpF2I, isa.OpF2L, isa.OpF2D, isa.OpD2I, isa.OpD2L, isa.OpD2F,
		isa.OpI2B, isa.OpI2C, isa.OpI2S:
		return true
	}
	return false
}

// guardedDivOp reports whether op is an integer divide/remainder (the
// only pure-class ALU ops that can trap).
func guardedDivOp(op isa.Op) bool {
	switch op {
	case isa.OpDivI, isa.OpRemI, isa.OpDivL, isa.OpRemL:
		return true
	}
	return false
}

// guardedDiv reports whether the divide/remainder at index i provably
// cannot trap: its divisor is the immediately preceding pushconst and
// is nonzero. (The executor's guarded fast path still mirrors the
// MinInt/-1 special cases exactly.)
func guardedDiv(code []isa.Instr, i int) bool {
	if i == 0 || code[i-1].Op != isa.OpPushConst {
		return false
	}
	prev := code[i-1]
	switch code[i].Op {
	case isa.OpDivI, isa.OpRemI:
		return prev.A != 0
	case isa.OpDivL, isa.OpRemL:
		return uint64(uint32(prev.A))|uint64(uint32(prev.B))<<32 != 0
	}
	return false
}

// memOp reports whether op is an absorbable memory instruction: array
// and field traffic whose dynamic cache cost the replay charges as it
// crosses it. Allocation, calls, monitors and the like stay block
// boundaries.
func memOp(op isa.Op) bool {
	switch op {
	case isa.OpALoad, isa.OpAStore, isa.OpArrayLen,
		isa.OpGetField, isa.OpPutField, isa.OpGetStatic, isa.OpPutStatic:
		return true
	}
	return false
}

// noBlock is the shared Len-0 block Block memoises at indices where no
// superblock starts.
var noBlock = &Superblock{}

// terminalOf classifies a control transfer that can close a run: an
// unconditional goto (EndFall: static target, fixed cost) or one
// conditional branch, whose outcome the executor decides from the
// replayed stack.
func terminalOf(op isa.Op) (end uint8, ok bool) {
	switch op {
	case isa.OpGoto:
		return EndFall, true
	case isa.OpIf:
		return EndIf, true
	case isa.OpIfCmpI:
		return EndIfCmpI, true
	case isa.OpIfCmpRef:
		return EndIfCmpRef, true
	case isa.OpIfNull:
		return EndIfNull, true
	}
	return EndFall, false
}

// scanRuns is Compile's share of superblock construction, one O(n)
// pass that lowers nothing. A run is a maximal stretch of pure and
// absorbable-memory instructions (a guarded divide may continue a run
// but not open one), extended through one terminating goto or
// conditional branch. For every index inside a run scanRuns records the
// run's replayable end: the terminal's index, or the run's exclusive
// end when it has no terminal. Indices in no run get -1. It runs after
// lower's branch fixups, so terminals carry resolved targets.
func scanRuns(code []isa.Instr) []int32 {
	ends := make([]int32, len(code))
	for s := 0; s < len(code); {
		e := s
		for e < len(code) && (pureOp(code[e].Op) || memOp(code[e].Op) ||
			(e > s && guardedDiv(code, e))) {
			e++
		}
		if e == s {
			ends[s] = -1
			s++
			continue
		}
		pe := e
		if e < len(code) {
			if _, ok := terminalOf(code[e].Op); ok {
				e++
			}
		}
		for i := s; i < e; i++ {
			ends[i] = int32(pe)
		}
		s = e
	}
	return ends
}

// buildBlock builds the superblock starting at index p of a run whose
// replayable end is pe (see scanRuns). The block reaches the run's end
// unless it was entered mid-expression (below), so a thread whose
// quantum expired mid-run resumes with a (shorter) block at its exact
// PC. It returns noBlock when no block starts at p.
func buildBlock(code []isa.Instr, p, pe int) *Superblock {
	if pe < 0 || guardedDivOp(code[p].Op) {
		// A branch may land on a guarded div with an unproven divisor on
		// the stack; blocks run through one but never start at it.
		return noBlock
	}
	// The replayable range [p, pe) excludes the terminal: a goto has no
	// data effect, and a conditional branch reads the operands the
	// replay leaves just above the block's final SP. The terminal's cost,
	// instruction count and pops still belong to the block, so the
	// compiler receives it separately.
	var term *isa.Instr
	if pe < len(code) {
		if _, ok := terminalOf(code[pe].Op); ok {
			term = &code[pe]
		}
	}
	// Entry counts the operands pushed before the block that it pops,
	// the terminal's comparison operands included. A block entered
	// mid-expression ends once it has consumed its entry operands and
	// holds nothing else: the fast path chains into the block starting
	// there, which every entry into the run shares, instead of each
	// mid-run entry lowering its own copy of the run's tail.
	var depth, entry int32
	for q := p; q < pe; q++ {
		pops, pushes := stackEffect(code[q].Op)
		entry = max(entry, pops-depth)
		depth += pushes - pops
		if entry > 0 && depth == -entry && q+1 < pe {
			pe, term = q+1, nil
			break
		}
	}
	if term != nil {
		pops, _ := stackEffect(term.Op)
		entry = max(entry, pops-depth)
	}
	b := compileMicro(code[p:pe], term, entry)
	b.Len, b.Target = int32(pe-p), int32(pe)
	if term != nil {
		b.Len++
		b.End, _ = terminalOf(term.Op)
		if term.Op == isa.OpGoto {
			b.Target = term.A
		} else {
			b.Target, b.Cond = term.B, term.A
		}
	}
	return b
}
