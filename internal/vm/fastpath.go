package vm

import (
	"fmt"
	"math"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
)

// This file is the superblock fast path: execute consults the compiled
// method's superblocks (jit.Superblock, built on first entry) and, when
// the block's first segment provably fits inside the quantum, applies
// its cost vector in one step and replays its lowered micro-ops. The
// replay must be byte-identical to per-instruction stepping — the
// Figure-4 golden and the differential tests pin that contract — so
// every micro-op case here mirrors the corresponding case of step
// exactly; step and runMicro are the only two copies of each op.

// fastForward applies one memoized superblock — core clock, per-class
// cycle counters, retired instructions and the per-method monitor
// counters advance by the block's precomputed vector (the exact totals
// per-instruction stepping would produce), then the block's micro-ops
// replay and the PC lands on the block's target — and then chains
// straight into the next block when one starts at the new PC and passes
// the executor's own entry guard. Every action in the chain charges,
// checks the deadline, and mutates state exactly as the reference path
// would — the fusion sheds only host-level dispatch overhead, never a
// simulated event.
func (vm *VM) fastForward(core *cell.Core, t *Thread, f *Frame, b *jit.Superblock,
	deadline uint64) {

	cm := f.CM
	for {
		// Cycles/ClassCycles/FirstLen cover the block's first pure
		// segment (the whole block when it absorbs no memory
		// instructions); the replay charges each absorbed memory
		// instruction and its following segment as it crosses them.
		core.FastForward(b.Cycles, &b.ClassCycles, uint64(b.FirstLen))
		if f.ctr != nil {
			for i, n := range b.ClassCycles {
				if n != 0 {
					f.ctr.Cycles[i] += n
				}
			}
		}
		entry := f.PC
		done, err := vm.runMicro(core, f, b, deadline)
		if err != nil {
			vm.raise(core, t, err)
			return
		}
		if !done {
			// Quantum expired at a memory boundary inside the block: the
			// replay restored exact stepped state at the boundary PC, and
			// the dispatcher takes over from there.
			return
		}
		if b.End == jit.EndFall {
			f.PC = int(b.Target)
		} else {
			vm.fastBranch(core, f, b, entry)
		}
		// Chain into the next block only under the executor's own guard.
		nb := cm.Block(f.PC)
		if nb.Len == 0 || core.Now+nb.Cycles >= deadline {
			return
		}
		b = nb
	}
}

// fastBranch applies a block's terminal conditional branch. The
// operands sit just above the final SP (the replay materialises them
// there; StackDelta already counts the branch's pops), and the
// branch-model bookkeeping — predictor update at the branch's static
// site key, mispredict or static-hint taken penalty — mirrors step's
// branch closure exactly.
func (vm *VM) fastBranch(core *cell.Core, f *Frame, b *jit.Superblock, entry int) {
	sp := f.SP
	var taken bool
	switch b.End {
	case jit.EndIf:
		taken = condHolds(b.Cond, compare32(int32(uint32(f.Stack[sp])), 0))
	case jit.EndIfCmpI:
		a := int32(uint32(f.Stack[sp]))
		bb := int32(uint32(f.Stack[sp+1]))
		taken = condHolds(b.Cond, compare32(a, bb))
	case jit.EndIfCmpRef:
		eq := Ref(f.Stack[sp]) == Ref(f.Stack[sp+1])
		taken = (b.Cond == isa.CondEQ && eq) || (b.Cond == isa.CondNE && !eq)
	case jit.EndIfNull:
		r := Ref(f.Stack[sp])
		taken = (b.Cond == 0 && r == 0) || (b.Cond == 1 && r != 0)
	}
	if core.BP != nil {
		site := uint32(f.CM.M.ID)<<12 ^ uint32(entry+int(b.Len)-1)
		if !core.BP.Predict(site, taken) {
			penalty := uint64(vm.compilers[core.Kind].Costs().BranchTakenExtra)
			core.Charge(isa.ClassBranch, penalty)
			f.chargeDyn(isa.ClassBranch, penalty)
		}
	} else if taken {
		penalty := uint64(vm.compilers[core.Kind].Costs().BranchTakenExtra)
		core.Charge(isa.ClassBranch, penalty)
		f.chargeDyn(isa.ClassBranch, penalty)
	}
	if taken {
		f.PC = int(b.Target)
	} else {
		f.PC = entry + int(b.Len)
	}
}

// microVal reads a micro-op operand: a non-negative value is a stack
// slot (relative to the block's base, pre-sliced by the caller), a
// negative one a local, and jit.MicroImm the op's immediate.
func microVal(stack, locals []uint64, o int32, imm uint64) uint64 {
	if o >= 0 {
		return stack[o]
	}
	if o == jit.MicroImm {
		return imm
	}
	return locals[-o-1]
}

func microStore(stack, locals []uint64, d int32, v uint64) {
	if d >= 0 {
		stack[d] = v
	} else {
		locals[-d-1] = v
	}
}

// microFlag resolves a deferred reference-flag source against block-
// entry state: the frame's LocalRefs (local flag writes land last) or
// ents, the entry slots' flags snapshotted before the replay.
func microFlag(f *Frame, ents []bool, src int32) bool {
	switch {
	case src == 0:
		return false
	case src == 1:
		return true
	case src > 0:
		return f.LocalRefs[src-2]
	}
	return ents[-src-1]
}

// landFlags applies a list of deferred reference-flag writes. refs
// (the VM's flagBuf) holds the entry slots' flag snapshot in its first
// b.Entry elements and is scratch after that. Stack writes land at once: no
// source reads a live stack flag. Local sources may read a local
// another write targets, so every local source is resolved before any
// local write.
func landFlags(f *Frame, b *jit.Superblock, base int, refs []bool, lf, sf []jit.FlagWrite) {
	ents, scratch := refs[:b.Entry], refs[b.Entry:]
	for i := range sf {
		f.StackRefs[base+int(sf[i].Idx)] = microFlag(f, ents, sf[i].Src)
	}
	for i := range lf {
		scratch[i] = microFlag(f, ents, lf[i].Src)
	}
	for i := range lf {
		f.LocalRefs[lf[i].Idx] = scratch[i]
	}
}

// microSync restores the exact stepped frame state at one memory
// boundary for an early exit (quantum expiry or trap): it lands the
// boundary's shadow materialisations and its reference-flag snapshot.
// withOps includes the operand materialisations — pre-instruction
// state, for a resume at the boundary itself; a resume at the *next*
// instruction excludes them so they cannot clobber the result slot.
func (vm *VM) microSync(f *Frame, b *jit.Superblock, bd *jit.MemBound, base int, withOps bool) {
	stack := f.Stack[base:]
	locals := f.Locals
	hi := bd.MatOpLo
	if withOps {
		hi = bd.MatHi
	}
	for i := bd.MatLo; i < hi; i++ {
		m := &b.Mats[i]
		if m.Code == jit.MMovImm {
			microStore(stack, locals, m.D, m.Imm)
		} else {
			microStore(stack, locals, m.D, microVal(stack, locals, m.A, m.Imm))
		}
	}
	landFlags(f, b, base, vm.flagBuf, b.BLFlags[bd.LfLo:bd.LfHi], b.BSFlags[bd.SfLo:bd.SfHi])
}

// microExit hands the replay back to the dispatcher at memory boundary
// bd itself, in exact pre-instruction state with the stack at depth sp
// above the base: SPAtOp on quantum expiry, SPTrap for a trap.
func (vm *VM) microExit(f *Frame, b *jit.Superblock, bd *jit.MemBound, base int, sp int32) {
	vm.microSync(f, b, bd, base, true)
	f.PC += int(bd.RelIdx)
	f.SP = base + int(sp)
}

// microTrap is microExit for a trap raised by the memory instruction
// at bd, returning the same error step would.
func (vm *VM) microTrap(f *Frame, b *jit.Superblock, bd *jit.MemBound, base int,
	kind, detail string) error {

	vm.microExit(f, b, bd, base, bd.SPTrap)
	return vm.trapAt(f, kind, detail)
}

// microSeg charges the pure segment that follows memory boundary bi,
// or aborts the replay at the segment's first instruction when the
// whole segment cannot complete inside the quantum — the dispatcher
// then resumes per-instruction from exact state, so deadline semantics
// are unchanged (the entry guard applies the same conservatism to a
// block's first segment). dst/dstRef re-land a load result's
// reference flag after the snapshot, whose entry captured the operand
// that previously occupied the slot.
func (vm *VM) microSeg(core *cell.Core, f *Frame, b *jit.Superblock, bd *jit.MemBound,
	base, bi int, deadline uint64, dst int32, dstRef, hasDst bool) bool {

	sg := &b.Segs[bi]
	if core.Now+sg.Cycles >= deadline {
		vm.microSync(f, b, bd, base, false)
		if hasDst {
			f.StackRefs[base+int(dst)] = dstRef
		}
		f.PC += int(bd.RelIdx) + 1
		f.SP = base + int(bd.SPAfter)
		return false
	}
	core.FastForwardTail(sg.Cycles, &sg.ClassCycles, uint64(sg.Len))
	if f.ctr != nil {
		for i, n := range sg.ClassCycles {
			if n != 0 {
				f.ctr.Cycles[i] += n
			}
		}
	}
	return true
}

// runMicro replays a block's slot-addressed micro-ops from the base
// f.SP - b.Entry. Every arithmetic case is semantically identical to
// the matching step case (shift masks, divide MinInt/-1, float NaN
// ordering); only the operand plumbing differs. The deferred flag
// writes then restore the observable reference maps — intermediate
// slots above the final SP may hold garbage, exactly as they may after
// stepping.
//
// Memory micro-ops mirror step's memory cases: deadline pre-check,
// static charge, retired-instruction count, then the step-identical
// cache/heap semantics (same trap conditions and messages, same
// loadMem/storeMem/arrayLength calls) reading operands symbolically.
// It returns done=false when the replay handed back to the dispatcher
// mid-block (quantum expiry at a boundary — frame state is exact at
// the recorded PC), and a non-nil error for a trap, which the caller
// raises exactly as the executor would.
func (vm *VM) runMicro(core *cell.Core, f *Frame, b *jit.Superblock, deadline uint64) (bool, error) {
	base := f.SP - int(b.Entry)
	if need := base + int(b.MaxDepth); need > len(f.Stack) {
		// Mirrors Frame.push's defensive growth; the verifier's MaxStack
		// normally pre-sizes the stack past any block's depth.
		for len(f.Stack) < need {
			f.Stack = append(f.Stack, 0)
			f.StackRefs = append(f.StackRefs, false)
		}
	}
	if int(b.FlagBuf) > len(vm.flagBuf) {
		vm.flagBuf = make([]bool, b.FlagBuf)
	}
	// Snapshot the entry slots' flags before any replay write lands.
	if b.Entry > 0 {
		copy(vm.flagBuf, f.StackRefs[base:f.SP])
	}
	stack := f.Stack[base:]
	locals := f.Locals
	bi := 0
	for i := range b.Micro {
		m := &b.Micro[i]
		switch m.Code {
		case jit.MMov:
			microStore(stack, locals, m.D, microVal(stack, locals, m.A, m.Imm))
		case jit.MMovImm:
			microStore(stack, locals, m.D, m.Imm)

		case jit.MAddI:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(a+bb)))
		case jit.MSubI:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(a-bb)))
		case jit.MMulI:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(a*bb)))
		case jit.MDivI:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			if a == math.MinInt32 && bb == -1 {
				var minI int32 = math.MinInt32
				microStore(stack, locals, m.D, uint64(uint32(minI)))
			} else {
				microStore(stack, locals, m.D, uint64(uint32(a/bb)))
			}
		case jit.MRemI:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			if a == math.MinInt32 && bb == -1 {
				microStore(stack, locals, m.D, 0)
			} else {
				microStore(stack, locals, m.D, uint64(uint32(a%bb)))
			}
		case jit.MNegI:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(-a)))
		case jit.MAndI:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(a&bb)))
		case jit.MOrI:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(a|bb)))
		case jit.MXorI:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(a^bb)))
		case jit.MShlI:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(a<<(uint32(bb)&31))))
		case jit.MShrI:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(a>>(uint32(bb)&31))))
		case jit.MUShrI:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(int32(uint32(a)>>(uint32(bb)&31)))))

		case jit.MAddL:
			a := int64(microVal(stack, locals, m.A, m.Imm))
			bb := int64(microVal(stack, locals, m.B, m.Imm))
			microStore(stack, locals, m.D, uint64(a+bb))
		case jit.MSubL:
			a := int64(microVal(stack, locals, m.A, m.Imm))
			bb := int64(microVal(stack, locals, m.B, m.Imm))
			microStore(stack, locals, m.D, uint64(a-bb))
		case jit.MMulL:
			a := int64(microVal(stack, locals, m.A, m.Imm))
			bb := int64(microVal(stack, locals, m.B, m.Imm))
			microStore(stack, locals, m.D, uint64(a*bb))
		case jit.MDivL:
			a := int64(microVal(stack, locals, m.A, m.Imm))
			bb := int64(microVal(stack, locals, m.B, m.Imm))
			if a == math.MinInt64 && bb == -1 {
				var minL int64 = math.MinInt64
				microStore(stack, locals, m.D, uint64(minL))
			} else {
				microStore(stack, locals, m.D, uint64(a/bb))
			}
		case jit.MRemL:
			a := int64(microVal(stack, locals, m.A, m.Imm))
			bb := int64(microVal(stack, locals, m.B, m.Imm))
			if a == math.MinInt64 && bb == -1 {
				microStore(stack, locals, m.D, 0)
			} else {
				microStore(stack, locals, m.D, uint64(a%bb))
			}
		case jit.MNegL:
			a := int64(microVal(stack, locals, m.A, m.Imm))
			microStore(stack, locals, m.D, uint64(-a))
		case jit.MAndL:
			a := microVal(stack, locals, m.A, m.Imm)
			bb := microVal(stack, locals, m.B, m.Imm)
			microStore(stack, locals, m.D, a&bb)
		case jit.MOrL:
			a := microVal(stack, locals, m.A, m.Imm)
			bb := microVal(stack, locals, m.B, m.Imm)
			microStore(stack, locals, m.D, a|bb)
		case jit.MXorL:
			a := microVal(stack, locals, m.A, m.Imm)
			bb := microVal(stack, locals, m.B, m.Imm)
			microStore(stack, locals, m.D, a^bb)
		case jit.MShlL:
			a := int64(microVal(stack, locals, m.A, m.Imm))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(a<<(uint32(bb)&63)))
		case jit.MShrL:
			a := int64(microVal(stack, locals, m.A, m.Imm))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(a>>(uint32(bb)&63)))
		case jit.MUShrL:
			a := int64(microVal(stack, locals, m.A, m.Imm))
			bb := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(int64(uint64(a)>>(uint32(bb)&63))))
		case jit.MCmpL:
			a := int64(microVal(stack, locals, m.A, m.Imm))
			bb := int64(microVal(stack, locals, m.B, m.Imm))
			microStore(stack, locals, m.D, uint64(uint32(cmpOrder(a < bb, a == bb))))

		case jit.MAddF:
			a := math.Float32frombits(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := math.Float32frombits(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(math.Float32bits(a+bb)))
		case jit.MSubF:
			a := math.Float32frombits(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := math.Float32frombits(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(math.Float32bits(a-bb)))
		case jit.MMulF:
			a := math.Float32frombits(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := math.Float32frombits(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(math.Float32bits(a*bb)))
		case jit.MDivF:
			a := math.Float32frombits(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := math.Float32frombits(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D, uint64(math.Float32bits(a/bb)))
		case jit.MNegF:
			a := math.Float32frombits(uint32(microVal(stack, locals, m.A, m.Imm)))
			microStore(stack, locals, m.D, uint64(math.Float32bits(-a)))
		case jit.MRemF:
			a := math.Float32frombits(uint32(microVal(stack, locals, m.A, m.Imm)))
			bb := math.Float32frombits(uint32(microVal(stack, locals, m.B, m.Imm)))
			microStore(stack, locals, m.D,
				uint64(math.Float32bits(float32(math.Mod(float64(a), float64(bb))))))
		case jit.MCmpF:
			a := math.Float32frombits(uint32(microVal(stack, locals, m.A, 0)))
			bb := math.Float32frombits(uint32(microVal(stack, locals, m.B, 0)))
			if a != a || bb != bb { // NaN
				microStore(stack, locals, m.D, uint64(uint32(int32(uint32(m.Imm)))))
			} else {
				microStore(stack, locals, m.D, uint64(uint32(cmpOrder(a < bb, a == bb))))
			}

		case jit.MAddD:
			a := math.Float64frombits(microVal(stack, locals, m.A, m.Imm))
			bb := math.Float64frombits(microVal(stack, locals, m.B, m.Imm))
			microStore(stack, locals, m.D, math.Float64bits(a+bb))
		case jit.MSubD:
			a := math.Float64frombits(microVal(stack, locals, m.A, m.Imm))
			bb := math.Float64frombits(microVal(stack, locals, m.B, m.Imm))
			microStore(stack, locals, m.D, math.Float64bits(a-bb))
		case jit.MMulD:
			a := math.Float64frombits(microVal(stack, locals, m.A, m.Imm))
			bb := math.Float64frombits(microVal(stack, locals, m.B, m.Imm))
			microStore(stack, locals, m.D, math.Float64bits(a*bb))
		case jit.MDivD:
			a := math.Float64frombits(microVal(stack, locals, m.A, m.Imm))
			bb := math.Float64frombits(microVal(stack, locals, m.B, m.Imm))
			microStore(stack, locals, m.D, math.Float64bits(a/bb))
		case jit.MNegD:
			a := math.Float64frombits(microVal(stack, locals, m.A, m.Imm))
			microStore(stack, locals, m.D, math.Float64bits(-a))
		case jit.MRemD:
			a := math.Float64frombits(microVal(stack, locals, m.A, m.Imm))
			bb := math.Float64frombits(microVal(stack, locals, m.B, m.Imm))
			microStore(stack, locals, m.D, math.Float64bits(math.Mod(a, bb)))
		case jit.MCmpD:
			a := math.Float64frombits(microVal(stack, locals, m.A, 0))
			bb := math.Float64frombits(microVal(stack, locals, m.B, 0))
			if a != a || bb != bb {
				microStore(stack, locals, m.D, uint64(uint32(int32(uint32(m.Imm)))))
			} else {
				microStore(stack, locals, m.D, uint64(uint32(cmpOrder(a < bb, a == bb))))
			}

		case jit.MI2L:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			microStore(stack, locals, m.D, uint64(int64(a)))
		case jit.MI2F:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			microStore(stack, locals, m.D, uint64(math.Float32bits(float32(a))))
		case jit.MI2D:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			microStore(stack, locals, m.D, math.Float64bits(float64(a)))
		case jit.ML2I:
			a := int64(microVal(stack, locals, m.A, m.Imm))
			microStore(stack, locals, m.D, uint64(uint32(int32(a))))
		case jit.ML2F:
			a := int64(microVal(stack, locals, m.A, m.Imm))
			microStore(stack, locals, m.D, uint64(math.Float32bits(float32(a))))
		case jit.ML2D:
			a := int64(microVal(stack, locals, m.A, m.Imm))
			microStore(stack, locals, m.D, math.Float64bits(float64(a)))
		case jit.MF2I:
			a := math.Float32frombits(uint32(microVal(stack, locals, m.A, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(f2i(float64(a)))))
		case jit.MF2L:
			a := math.Float32frombits(uint32(microVal(stack, locals, m.A, m.Imm)))
			microStore(stack, locals, m.D, uint64(d2l(float64(a))))
		case jit.MF2D:
			a := math.Float32frombits(uint32(microVal(stack, locals, m.A, m.Imm)))
			microStore(stack, locals, m.D, math.Float64bits(float64(a)))
		case jit.MD2I:
			a := math.Float64frombits(microVal(stack, locals, m.A, m.Imm))
			microStore(stack, locals, m.D, uint64(uint32(f2i(a))))
		case jit.MD2L:
			a := math.Float64frombits(microVal(stack, locals, m.A, m.Imm))
			microStore(stack, locals, m.D, uint64(d2l(a)))
		case jit.MD2F:
			a := math.Float64frombits(microVal(stack, locals, m.A, m.Imm))
			microStore(stack, locals, m.D, uint64(math.Float32bits(float32(a))))
		case jit.MI2B:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(int32(int8(a)))))
		case jit.MI2C:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(int32(uint16(a)))))
		case jit.MI2S:
			a := int32(uint32(microVal(stack, locals, m.A, m.Imm)))
			microStore(stack, locals, m.D, uint64(uint32(int32(int16(a)))))

		default: // a memory micro-op, paired in order with Bounds[bi]
			bd := &b.Bounds[bi]
			if core.Now >= deadline {
				vm.microExit(f, b, bd, base, bd.SPAtOp)
				return false, nil
			}
			core.Charge(bd.Class, uint64(bd.Cost))
			if f.ctr != nil {
				f.ctr.Cycles[bd.Class] += uint64(bd.Cost)
			}
			core.Stats.Instrs++
			// A load writes its result (v, isRef) at stack slot D.
			var v uint64
			var isRef bool
			load := true
			switch m.Code {
			case jit.MALoad:
				arr := Ref(microVal(stack, locals, m.A, m.Imm))
				idx := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
				if arr == 0 {
					return false, vm.microTrap(f, b, bd, base, "NullPointerException", "array load")
				}
				n := vm.arrayLength(core, f, arr)
				if idx < 0 || uint32(idx) >= n {
					return false, vm.microTrap(f, b, bd, base, "ArrayIndexOutOfBoundsException",
						fmt.Sprintf("index %d, length %d", idx, n))
				}
				k := isa.ElemKind(bd.Kind)
				esz := k.Size()
				raw := vm.loadMem(core, f, arr+isa.HeaderBytes, n*esz, uint32(idx)*esz, esz, 0, true)
				v, isRef = extendElem(k, raw), k == isa.ElemRef
			case jit.MAStore:
				val := microVal(stack, locals, m.D, m.Imm)
				arr := Ref(microVal(stack, locals, m.A, m.Imm))
				idx := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
				if arr == 0 {
					return false, vm.microTrap(f, b, bd, base, "NullPointerException", "array store")
				}
				n := vm.arrayLength(core, f, arr)
				if idx < 0 || uint32(idx) >= n {
					return false, vm.microTrap(f, b, bd, base, "ArrayIndexOutOfBoundsException",
						fmt.Sprintf("index %d, length %d", idx, n))
				}
				k := isa.ElemKind(bd.Kind)
				esz := k.Size()
				vm.storeMem(core, f, arr+isa.HeaderBytes, n*esz, uint32(idx)*esz, esz, val, 0, true)
				load = false
			case jit.MArrayLen:
				arr := Ref(microVal(stack, locals, m.A, m.Imm))
				if arr == 0 {
					return false, vm.microTrap(f, b, bd, base, "NullPointerException", "arraylength")
				}
				v = uint64(uint32(vm.arrayLength(core, f, arr)))
			case jit.MGetField:
				ref := Ref(microVal(stack, locals, m.A, m.Imm))
				if ref == 0 {
					return false, vm.microTrap(f, b, bd, base, "NullPointerException", "getfield")
				}
				v = vm.loadMem(core, f, ref, vm.objectSize(ref), uint32(bd.Kind), 8, bd.Flags, false)
				isRef = bd.Flags&isa.FlagRef != 0
			case jit.MPutField:
				val := microVal(stack, locals, m.B, m.Imm)
				ref := Ref(microVal(stack, locals, m.A, m.Imm))
				if ref == 0 {
					return false, vm.microTrap(f, b, bd, base, "NullPointerException", "putfield")
				}
				vm.storeMem(core, f, ref, vm.objectSize(ref), uint32(bd.Kind), 8, val, bd.Flags, false)
				load = false
			case jit.MGetStatic:
				addr := vm.staticsBase + uint32(bd.Kind)*isa.SlotBytes
				v = vm.loadMem(core, f, addr, isa.SlotBytes, 0, 8, bd.Flags, false)
				isRef = bd.Flags&isa.FlagRef != 0
			case jit.MPutStatic:
				val := microVal(stack, locals, m.A, m.Imm)
				addr := vm.staticsBase + uint32(bd.Kind)*isa.SlotBytes
				vm.storeMem(core, f, addr, isa.SlotBytes, 0, 8, val, bd.Flags, false)
				load = false
			default:
				panic("vm: unknown micro-op in superblock replay")
			}
			if load {
				stack[m.D] = v
				f.StackRefs[base+int(m.D)] = isRef
			}
			if !vm.microSeg(core, f, b, bd, base, bi, deadline, m.D, isRef, load) {
				return false, nil
			}
			bi++
		}
	}

	landFlags(f, b, base, vm.flagBuf, b.LFlags, b.SFlags)
	f.SP = base + int(b.StackDelta)
	return true, nil
}
