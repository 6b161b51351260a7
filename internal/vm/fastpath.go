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
// the whole block provably fits inside the quantum, applies its cost
// vector in one step and replays its stack effects with a closure-free
// mini-interpreter. The replay must be byte-identical to
// per-instruction stepping — the Figure-4 golden and the differential
// tests pin that contract — so every case here mirrors the
// corresponding case of step exactly.

// fastForward applies one memoized superblock — core clock, per-class
// cycle counters, retired instructions and the per-method monitor
// counters advance by the block's precomputed vector (the exact totals
// per-instruction stepping would produce), then the block's stack and
// local effects replay and the PC lands on the block's target — and
// then keeps control for as long as it can make progress without the
// outer dispatch loop: it chains straight into the next block when one
// starts at the new PC and passes the same guards the executor applies,
// and runs the individual memory instructions *between* blocks (array
// and field traffic) through closure-free mirrors of step's cases.
// Every action in the chain charges, checks the deadline, and mutates
// state exactly as the reference path would — the fusion sheds only
// host-level dispatch overhead, never a simulated event.
func (vm *VM) fastForward(core *cell.Core, t *Thread, f *Frame, b *jit.Superblock,
	deadline uint64) {

	cm := f.CM
	code := cm.Code
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
		entry, base := f.PC, f.SP
		if b.MicroOK {
			done, err := vm.runMicro(core, f, b, deadline)
			if err != nil {
				vm.raise(core, t, err)
				return
			}
			if !done {
				// Quantum expired at a memory boundary inside the block:
				// the replay restored exact stepped state at the boundary
				// PC, and the dispatcher takes over from there.
				return
			}
		} else {
			// The replayable prefix excludes a control terminal: a goto is
			// a data no-op (runPure skips it), and a conditional branch is
			// applied below from the values the replay leaves on the stack.
			pure := int(b.Len)
			if b.End != jit.EndFall {
				pure--
			}
			runPure(f, pure)
			// StackDelta counts the terminal branch's pops; the operand
			// values stay in their slots just above the final SP.
			f.SP = base + int(b.StackDelta)
		}
		if b.End == jit.EndFall {
			f.PC = int(b.Target)
		} else {
			vm.fastBranch(core, f, b, entry)
		}

		// Inline the memory instructions between blocks, mirroring the
		// executor's per-instruction sequence: deadline check, static
		// charge, retired-instruction count, then step-identical
		// semantics (fastMem). Traps feed the executor's own raise path.
	chain:
		for {
			in := &code[f.PC]
			switch in.Op {
			case isa.OpALoad, isa.OpAStore, isa.OpArrayLen,
				isa.OpGetField, isa.OpPutField, isa.OpGetStatic, isa.OpPutStatic:
				if core.Now >= deadline {
					return
				}
				class := in.Op.Class()
				core.Charge(class, uint64(in.Cost))
				if f.ctr != nil {
					f.ctr.Cycles[class] += uint64(in.Cost)
				}
				core.Stats.Instrs++
				if err := vm.fastMem(core, f, in); err != nil {
					vm.raise(core, t, err)
					return
				}
				f.PC++
			default:
				break chain
			}
		}
		// Chain into the next block only under the executor's own guards.
		nb := cm.Block(f.PC)
		if nb.Len == 0 || core.Now+nb.Cycles >= deadline {
			return
		}
		b = nb
	}
}

// fastMem mirrors step's memory cases exactly — same pop order, same
// trap conditions and messages, same loadMem/storeMem/arrayLength
// calls, so the cache model, coherence actions and dynamic charges
// evolve identically — without step's per-call closure construction.
// The caller has already charged the instruction's static cost.
func (vm *VM) fastMem(core *cell.Core, f *Frame, in *isa.Instr) error {
	switch in.Op {
	case isa.OpALoad:
		iv, _ := f.pop()
		idx := int32(uint32(iv))
		av, _ := f.pop()
		arr := Ref(av)
		if arr == 0 {
			return vm.trapAt(f, "NullPointerException", "array load")
		}
		n := vm.arrayLength(core, f, arr)
		if idx < 0 || uint32(idx) >= n {
			return vm.trapAt(f, "ArrayIndexOutOfBoundsException",
				fmt.Sprintf("index %d, length %d", idx, n))
		}
		k := isa.ElemKind(in.A)
		esz := k.Size()
		raw := vm.loadMem(core, f, arr+isa.HeaderBytes, n*esz, uint32(idx)*esz, esz, 0, true)
		f.push(extendElem(k, raw), k == isa.ElemRef)
	case isa.OpAStore:
		v, _ := f.pop()
		iv, _ := f.pop()
		idx := int32(uint32(iv))
		av, _ := f.pop()
		arr := Ref(av)
		if arr == 0 {
			return vm.trapAt(f, "NullPointerException", "array store")
		}
		n := vm.arrayLength(core, f, arr)
		if idx < 0 || uint32(idx) >= n {
			return vm.trapAt(f, "ArrayIndexOutOfBoundsException",
				fmt.Sprintf("index %d, length %d", idx, n))
		}
		k := isa.ElemKind(in.A)
		esz := k.Size()
		vm.storeMem(core, f, arr+isa.HeaderBytes, n*esz, uint32(idx)*esz, esz, v, 0, true)
	case isa.OpArrayLen:
		av, _ := f.pop()
		arr := Ref(av)
		if arr == 0 {
			return vm.trapAt(f, "NullPointerException", "arraylength")
		}
		f.push(uint64(uint32(vm.arrayLength(core, f, arr))), false)
	case isa.OpGetField:
		rv, _ := f.pop()
		ref := Ref(rv)
		if ref == 0 {
			return vm.trapAt(f, "NullPointerException", "getfield")
		}
		v := vm.loadMem(core, f, ref, vm.objectSize(ref), uint32(in.A), 8, in.B, false)
		f.push(v, in.B&isa.FlagRef != 0)
	case isa.OpPutField:
		v, _ := f.pop()
		rv, _ := f.pop()
		ref := Ref(rv)
		if ref == 0 {
			return vm.trapAt(f, "NullPointerException", "putfield")
		}
		vm.storeMem(core, f, ref, vm.objectSize(ref), uint32(in.A), 8, v, in.B, false)
	case isa.OpGetStatic:
		addr := vm.staticsBase + uint32(in.A)*isa.SlotBytes
		v := vm.loadMem(core, f, addr, isa.SlotBytes, 0, 8, in.B, false)
		f.push(v, in.B&isa.FlagRef != 0)
	case isa.OpPutStatic:
		v, _ := f.pop()
		addr := vm.staticsBase + uint32(in.A)*isa.SlotBytes
		vm.storeMem(core, f, addr, isa.SlotBytes, 0, 8, v, in.B, false)
	}
	return nil
}

// fastBranch applies a block's terminal conditional branch. The
// operands sit just above the final SP (both replay paths materialise
// them there; StackDelta already counts the branch's pops), and the
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
// slot (relative to the block's entry SP, pre-sliced by the caller), a
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

// microFlag resolves a deferred reference-flag source against the
// frame's block-entry local reference map (flag writes land only after
// every source is resolved, so LocalRefs still holds entry values).
func microFlag(f *Frame, src int32) bool {
	switch src {
	case 0:
		return false
	case 1:
		return true
	default:
		return f.LocalRefs[src-2]
	}
}

// microSync restores the exact stepped frame state at one memory
// boundary for an early exit (quantum expiry or trap): it lands the
// boundary's shadow materialisations and its reference-flag snapshot.
// withOps includes the operand materialisations — pre-instruction
// state, for a resume at the boundary itself; a resume at the *next*
// instruction excludes them so they cannot clobber the result slot.
func microSync(f *Frame, b *jit.Superblock, bd *jit.MemBound, base int, withOps bool) {
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
	var lbuf, sbuf [8]bool
	for i := bd.LfLo; i < bd.LfHi; i++ {
		lbuf[i-bd.LfLo] = microFlag(f, b.BLFlags[i].Src)
	}
	for i := bd.SfLo; i < bd.SfHi; i++ {
		sbuf[i-bd.SfLo] = microFlag(f, b.BSFlags[i].Src)
	}
	for i := bd.LfLo; i < bd.LfHi; i++ {
		f.LocalRefs[b.BLFlags[i].Idx] = lbuf[i-bd.LfLo]
	}
	for i := bd.SfLo; i < bd.SfHi; i++ {
		f.StackRefs[base+int(b.BSFlags[i].Idx)] = sbuf[i-bd.SfLo]
	}
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
		microSync(f, b, bd, base, false)
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

// runMicro replays a block's slot-addressed micro-ops. Every
// arithmetic case is semantically identical to the matching step /
// runPure case (shift masks, divide MinInt/-1, float NaN ordering);
// only the operand plumbing differs. The deferred flag writes then
// restore the observable reference maps — intermediate slots above the
// final SP may hold garbage, exactly as they may after stepping.
//
// Memory micro-ops mirror fastMem (itself a mirror of step): deadline
// pre-check, static charge, retired-instruction count, then the
// step-identical cache/heap semantics reading operands symbolically.
// It returns done=false when the replay handed back to the dispatcher
// mid-block (quantum expiry at a boundary — frame state is exact at
// the recorded PC), and a non-nil error for a trap, which the caller
// raises exactly as the executor would.
func (vm *VM) runMicro(core *cell.Core, f *Frame, b *jit.Superblock, deadline uint64) (bool, error) {
	base := f.SP
	if need := base + int(b.MaxDepth); need > len(f.Stack) {
		// Mirrors Frame.push's defensive growth; the verifier's MaxStack
		// normally pre-sizes the stack past any block's depth.
		for len(f.Stack) < need {
			f.Stack = append(f.Stack, 0)
			f.StackRefs = append(f.StackRefs, false)
		}
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

		case jit.MALoad:
			bd := &b.Bounds[bi]
			if core.Now >= deadline {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPAtOp)
				return false, nil
			}
			core.Charge(bd.Class, uint64(bd.Cost))
			if f.ctr != nil {
				f.ctr.Cycles[bd.Class] += uint64(bd.Cost)
			}
			core.Stats.Instrs++
			arr := Ref(microVal(stack, locals, m.A, m.Imm))
			idx := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			if arr == 0 {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPTrap)
				return false, vm.trapAt(f, "NullPointerException", "array load")
			}
			n := vm.arrayLength(core, f, arr)
			if idx < 0 || uint32(idx) >= n {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPTrap)
				return false, vm.trapAt(f, "ArrayIndexOutOfBoundsException",
					fmt.Sprintf("index %d, length %d", idx, n))
			}
			k := isa.ElemKind(bd.Kind)
			esz := k.Size()
			raw := vm.loadMem(core, f, arr+isa.HeaderBytes, n*esz, uint32(idx)*esz, esz, 0, true)
			stack[m.D] = extendElem(k, raw)
			f.StackRefs[base+int(m.D)] = k == isa.ElemRef
			if !vm.microSeg(core, f, b, bd, base, bi, deadline, m.D, k == isa.ElemRef, true) {
				return false, nil
			}
			bi++
		case jit.MAStore:
			bd := &b.Bounds[bi]
			if core.Now >= deadline {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPAtOp)
				return false, nil
			}
			core.Charge(bd.Class, uint64(bd.Cost))
			if f.ctr != nil {
				f.ctr.Cycles[bd.Class] += uint64(bd.Cost)
			}
			core.Stats.Instrs++
			v := microVal(stack, locals, m.D, m.Imm)
			arr := Ref(microVal(stack, locals, m.A, m.Imm))
			idx := int32(uint32(microVal(stack, locals, m.B, m.Imm)))
			if arr == 0 {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPTrap)
				return false, vm.trapAt(f, "NullPointerException", "array store")
			}
			n := vm.arrayLength(core, f, arr)
			if idx < 0 || uint32(idx) >= n {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPTrap)
				return false, vm.trapAt(f, "ArrayIndexOutOfBoundsException",
					fmt.Sprintf("index %d, length %d", idx, n))
			}
			k := isa.ElemKind(bd.Kind)
			esz := k.Size()
			vm.storeMem(core, f, arr+isa.HeaderBytes, n*esz, uint32(idx)*esz, esz, v, 0, true)
			if !vm.microSeg(core, f, b, bd, base, bi, deadline, 0, false, false) {
				return false, nil
			}
			bi++
		case jit.MArrayLen:
			bd := &b.Bounds[bi]
			if core.Now >= deadline {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPAtOp)
				return false, nil
			}
			core.Charge(bd.Class, uint64(bd.Cost))
			if f.ctr != nil {
				f.ctr.Cycles[bd.Class] += uint64(bd.Cost)
			}
			core.Stats.Instrs++
			arr := Ref(microVal(stack, locals, m.A, m.Imm))
			if arr == 0 {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPTrap)
				return false, vm.trapAt(f, "NullPointerException", "arraylength")
			}
			stack[m.D] = uint64(uint32(vm.arrayLength(core, f, arr)))
			f.StackRefs[base+int(m.D)] = false
			if !vm.microSeg(core, f, b, bd, base, bi, deadline, m.D, false, true) {
				return false, nil
			}
			bi++
		case jit.MGetField:
			bd := &b.Bounds[bi]
			if core.Now >= deadline {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPAtOp)
				return false, nil
			}
			core.Charge(bd.Class, uint64(bd.Cost))
			if f.ctr != nil {
				f.ctr.Cycles[bd.Class] += uint64(bd.Cost)
			}
			core.Stats.Instrs++
			ref := Ref(microVal(stack, locals, m.A, m.Imm))
			if ref == 0 {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPTrap)
				return false, vm.trapAt(f, "NullPointerException", "getfield")
			}
			v := vm.loadMem(core, f, ref, vm.objectSize(ref), uint32(bd.Kind), 8, bd.Flags, false)
			isRef := bd.Flags&isa.FlagRef != 0
			stack[m.D] = v
			f.StackRefs[base+int(m.D)] = isRef
			if !vm.microSeg(core, f, b, bd, base, bi, deadline, m.D, isRef, true) {
				return false, nil
			}
			bi++
		case jit.MPutField:
			bd := &b.Bounds[bi]
			if core.Now >= deadline {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPAtOp)
				return false, nil
			}
			core.Charge(bd.Class, uint64(bd.Cost))
			if f.ctr != nil {
				f.ctr.Cycles[bd.Class] += uint64(bd.Cost)
			}
			core.Stats.Instrs++
			v := microVal(stack, locals, m.B, m.Imm)
			ref := Ref(microVal(stack, locals, m.A, m.Imm))
			if ref == 0 {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPTrap)
				return false, vm.trapAt(f, "NullPointerException", "putfield")
			}
			vm.storeMem(core, f, ref, vm.objectSize(ref), uint32(bd.Kind), 8, v, bd.Flags, false)
			if !vm.microSeg(core, f, b, bd, base, bi, deadline, 0, false, false) {
				return false, nil
			}
			bi++
		case jit.MGetStatic:
			bd := &b.Bounds[bi]
			if core.Now >= deadline {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPAtOp)
				return false, nil
			}
			core.Charge(bd.Class, uint64(bd.Cost))
			if f.ctr != nil {
				f.ctr.Cycles[bd.Class] += uint64(bd.Cost)
			}
			core.Stats.Instrs++
			addr := vm.staticsBase + uint32(bd.Kind)*isa.SlotBytes
			v := vm.loadMem(core, f, addr, isa.SlotBytes, 0, 8, bd.Flags, false)
			isRef := bd.Flags&isa.FlagRef != 0
			stack[m.D] = v
			f.StackRefs[base+int(m.D)] = isRef
			if !vm.microSeg(core, f, b, bd, base, bi, deadline, m.D, isRef, true) {
				return false, nil
			}
			bi++
		case jit.MPutStatic:
			bd := &b.Bounds[bi]
			if core.Now >= deadline {
				microSync(f, b, bd, base, true)
				f.PC += int(bd.RelIdx)
				f.SP = base + int(bd.SPAtOp)
				return false, nil
			}
			core.Charge(bd.Class, uint64(bd.Cost))
			if f.ctr != nil {
				f.ctr.Cycles[bd.Class] += uint64(bd.Cost)
			}
			core.Stats.Instrs++
			v := microVal(stack, locals, m.A, m.Imm)
			addr := vm.staticsBase + uint32(bd.Kind)*isa.SlotBytes
			vm.storeMem(core, f, addr, isa.SlotBytes, 0, 8, v, bd.Flags, false)
			if !vm.microSeg(core, f, b, bd, base, bi, deadline, 0, false, false) {
				return false, nil
			}
			bi++

		default:
			panic("vm: unknown micro-op in superblock replay")
		}
	}

	// Deferred reference-flag writes: resolve every source against the
	// entry-state LocalRefs, then land the writes.
	var lbuf, sbuf [8]bool
	for i := range b.LFlags {
		lbuf[i] = microFlag(f, b.LFlags[i].Src)
	}
	for i := range b.SFlags {
		sbuf[i] = microFlag(f, b.SFlags[i].Src)
	}
	for i := range b.LFlags {
		f.LocalRefs[b.LFlags[i].Idx] = lbuf[i]
	}
	for i := range b.SFlags {
		f.StackRefs[base+int(b.SFlags[i].Idx)] = sbuf[i]
	}
	f.SP = base + int(b.StackDelta)
	return true, nil
}

// pureStack is the mini-interpreter's operand-stack view: the frame's
// real stack and reference map behind pointer-receiver helpers, so a
// block replays without constructing the dozen closures step builds per
// instruction (the Go-level overhead the fast path exists to shed).
type pureStack struct {
	v  []uint64
	r  []bool
	sp int
}

func (s *pureStack) push(v uint64, ref bool) {
	if s.sp == len(s.v) {
		// Mirrors Frame.push: the verifier bounds MaxStack, so growth is
		// defensive only.
		s.v = append(s.v, 0)
		s.r = append(s.r, false)
	}
	s.v[s.sp] = v
	s.r[s.sp] = ref
	s.sp++
}

func (s *pureStack) pop() (uint64, bool) {
	s.sp--
	return s.v[s.sp], s.r[s.sp]
}

func (s *pureStack) popI() int32   { v, _ := s.pop(); return int32(uint32(v)) }
func (s *pureStack) pushI(v int32) { s.push(uint64(uint32(v)), false) }
func (s *pureStack) popL() int64   { v, _ := s.pop(); return int64(v) }
func (s *pureStack) pushL(v int64) { s.push(uint64(v), false) }
func (s *pureStack) popF() float32 { v, _ := s.pop(); return math.Float32frombits(uint32(v)) }
func (s *pureStack) pushF(v float32) {
	s.push(uint64(math.Float32bits(v)), false)
}
func (s *pureStack) popD() float64   { v, _ := s.pop(); return math.Float64frombits(v) }
func (s *pureStack) pushD(v float64) { s.push(math.Float64bits(v), false) }

// runPure replays the n instructions of the superblock at f.PC. Every
// case mirrors step exactly; ops outside the discovery purity set are
// unreachable by construction (block construction admits nothing
// else), so hitting the default case is an internal invariant failure.
// Integer divides appear only behind a nonzero constant divisor the
// same block pushed, so only the MinInt/-1 special cases need
// mirroring.
func runPure(f *Frame, n int) {
	blk := f.CM.Code[f.PC : f.PC+n]
	s := pureStack{v: f.Stack, r: f.StackRefs, sp: f.SP}
	for i := range blk {
		in := blk[i]
		switch in.Op {
		case isa.OpNop:
		case isa.OpGoto:
			// Always the block's last instruction; the caller applies its
			// control effect via the block's static Target.

		case isa.OpPushConst:
			s.push(uint64(uint32(in.A))|uint64(uint32(in.B))<<32, in.C == 1)
		case isa.OpLoadLocal:
			s.push(f.Locals[in.A], f.LocalRefs[in.A])
		case isa.OpStoreLocal:
			v, r := s.pop()
			f.Locals[in.A] = v
			f.LocalRefs[in.A] = r
		case isa.OpPop:
			s.pop()
		case isa.OpPop2:
			s.pop()
			s.pop()
		case isa.OpDup:
			v, r := s.pop()
			s.push(v, r)
			s.push(v, r)
		case isa.OpDupX1:
			a, ar := s.pop()
			b, br := s.pop()
			s.push(a, ar)
			s.push(b, br)
			s.push(a, ar)
		case isa.OpDupX2:
			a, ar := s.pop()
			b, br := s.pop()
			c, cr := s.pop()
			s.push(a, ar)
			s.push(c, cr)
			s.push(b, br)
			s.push(a, ar)
		case isa.OpDup2:
			a, ar := s.pop()
			b, br := s.pop()
			s.push(b, br)
			s.push(a, ar)
			s.push(b, br)
			s.push(a, ar)
		case isa.OpSwap:
			a, ar := s.pop()
			b, br := s.pop()
			s.push(a, ar)
			s.push(b, br)
		case isa.OpIncLocal:
			f.Locals[in.A] = uint64(uint32(int32(uint32(f.Locals[in.A])) + in.B))

		case isa.OpAddI:
			b, a := s.popI(), s.popI()
			s.pushI(a + b)
		case isa.OpSubI:
			b, a := s.popI(), s.popI()
			s.pushI(a - b)
		case isa.OpMulI:
			b, a := s.popI(), s.popI()
			s.pushI(a * b)
		case isa.OpDivI:
			b, a := s.popI(), s.popI()
			if a == math.MinInt32 && b == -1 {
				s.pushI(math.MinInt32)
			} else {
				s.pushI(a / b)
			}
		case isa.OpRemI:
			b, a := s.popI(), s.popI()
			if a == math.MinInt32 && b == -1 {
				s.pushI(0)
			} else {
				s.pushI(a % b)
			}
		case isa.OpNegI:
			s.pushI(-s.popI())
		case isa.OpAndI:
			b, a := s.popI(), s.popI()
			s.pushI(a & b)
		case isa.OpOrI:
			b, a := s.popI(), s.popI()
			s.pushI(a | b)
		case isa.OpXorI:
			b, a := s.popI(), s.popI()
			s.pushI(a ^ b)
		case isa.OpShlI:
			b, a := s.popI(), s.popI()
			s.pushI(a << (uint32(b) & 31))
		case isa.OpShrI:
			b, a := s.popI(), s.popI()
			s.pushI(a >> (uint32(b) & 31))
		case isa.OpUShrI:
			b, a := s.popI(), s.popI()
			s.pushI(int32(uint32(a) >> (uint32(b) & 31)))

		case isa.OpAddL:
			b, a := s.popL(), s.popL()
			s.pushL(a + b)
		case isa.OpSubL:
			b, a := s.popL(), s.popL()
			s.pushL(a - b)
		case isa.OpMulL:
			b, a := s.popL(), s.popL()
			s.pushL(a * b)
		case isa.OpDivL:
			b, a := s.popL(), s.popL()
			if a == math.MinInt64 && b == -1 {
				s.pushL(math.MinInt64)
			} else {
				s.pushL(a / b)
			}
		case isa.OpRemL:
			b, a := s.popL(), s.popL()
			if a == math.MinInt64 && b == -1 {
				s.pushL(0)
			} else {
				s.pushL(a % b)
			}
		case isa.OpNegL:
			s.pushL(-s.popL())
		case isa.OpAndL:
			b, a := s.popL(), s.popL()
			s.pushL(a & b)
		case isa.OpOrL:
			b, a := s.popL(), s.popL()
			s.pushL(a | b)
		case isa.OpXorL:
			b, a := s.popL(), s.popL()
			s.pushL(a ^ b)
		case isa.OpShlL:
			b, a := s.popI(), s.popL()
			s.pushL(a << (uint32(b) & 63))
		case isa.OpShrL:
			b, a := s.popI(), s.popL()
			s.pushL(a >> (uint32(b) & 63))
		case isa.OpUShrL:
			b, a := s.popI(), s.popL()
			s.pushL(int64(uint64(a) >> (uint32(b) & 63)))
		case isa.OpCmpL:
			b, a := s.popL(), s.popL()
			s.pushI(cmpOrder(a < b, a == b))

		case isa.OpAddF:
			b, a := s.popF(), s.popF()
			s.pushF(a + b)
		case isa.OpSubF:
			b, a := s.popF(), s.popF()
			s.pushF(a - b)
		case isa.OpMulF:
			b, a := s.popF(), s.popF()
			s.pushF(a * b)
		case isa.OpDivF:
			b, a := s.popF(), s.popF()
			s.pushF(a / b)
		case isa.OpNegF:
			s.pushF(-s.popF())
		case isa.OpRemF:
			b, a := s.popF(), s.popF()
			s.pushF(float32(math.Mod(float64(a), float64(b))))
		case isa.OpCmpF:
			b, a := s.popF(), s.popF()
			if a != a || b != b { // NaN
				s.pushI(in.A)
			} else {
				s.pushI(cmpOrder(a < b, a == b))
			}

		case isa.OpAddD:
			b, a := s.popD(), s.popD()
			s.pushD(a + b)
		case isa.OpSubD:
			b, a := s.popD(), s.popD()
			s.pushD(a - b)
		case isa.OpMulD:
			b, a := s.popD(), s.popD()
			s.pushD(a * b)
		case isa.OpDivD:
			b, a := s.popD(), s.popD()
			s.pushD(a / b)
		case isa.OpNegD:
			s.pushD(-s.popD())
		case isa.OpRemD:
			b, a := s.popD(), s.popD()
			s.pushD(math.Mod(a, b))
		case isa.OpCmpD:
			b, a := s.popD(), s.popD()
			if a != a || b != b {
				s.pushI(in.A)
			} else {
				s.pushI(cmpOrder(a < b, a == b))
			}

		case isa.OpI2L:
			s.pushL(int64(s.popI()))
		case isa.OpI2F:
			s.pushF(float32(s.popI()))
		case isa.OpI2D:
			s.pushD(float64(s.popI()))
		case isa.OpL2I:
			s.pushI(int32(s.popL()))
		case isa.OpL2F:
			s.pushF(float32(s.popL()))
		case isa.OpL2D:
			s.pushD(float64(s.popL()))
		case isa.OpF2I:
			s.pushI(f2i(float64(s.popF())))
		case isa.OpF2L:
			s.pushL(d2l(float64(s.popF())))
		case isa.OpF2D:
			s.pushD(float64(s.popF()))
		case isa.OpD2I:
			s.pushI(f2i(s.popD()))
		case isa.OpD2L:
			s.pushL(d2l(s.popD()))
		case isa.OpD2F:
			s.pushF(float32(s.popD()))
		case isa.OpI2B:
			s.pushI(int32(int8(s.popI())))
		case isa.OpI2C:
			s.pushI(int32(uint16(s.popI())))
		case isa.OpI2S:
			s.pushI(int32(int16(s.popI())))

		default:
			panic("vm: impure opcode " + in.Op.String() + " inside a superblock")
		}
	}
	f.Stack, f.StackRefs, f.SP = s.v, s.r, s.sp
}
