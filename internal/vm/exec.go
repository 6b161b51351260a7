package vm

import (
	"fmt"
	"math"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// execute runs t on core for up to quantum cycles, or until the thread
// blocks, terminates or migrates. It interprets the JIT-compiled machine
// instructions, charging each to the core's clock and operation-class
// counters; memory instructions route through the core's software caches
// (local-store kinds) or its hardware-cache model.
func (vm *VM) execute(core *cell.Core, t *Thread, quantum uint64) {
	deadline := core.Now + quantum
	for t.State == StateRunning && core.Now < deadline {
		f := t.top()
		if f.Marker {
			if len(t.Frames) == 1 {
				// A marker is always pushed beneath a callee (invoke's
				// migration protocol), so a lone marker is malformed state;
				// popping it would leave no frame to resume, and the loop
				// above would spin without charging a cycle. Trap instead.
				vm.trap(core, t, vm.trapAt(nil, "InternalError",
					"migration marker with no caller frame"))
				return
			}
			// Resumed after migrating back: drop the marker and deliver
			// the pending return value to the caller underneath.
			t.popFrame()
			f = t.top()
			if t.pendingHasVal {
				f.push(t.pendingVal, t.pendingIsRef)
			}
			t.pendingHasVal = false
			continue
		}
		// Freeze barrier: the job is being quiesced for a hand-off. Park
		// the thread at this bytecode boundary — Blocked, off the
		// calendar — instead of spending the quantum; FreezeJob collects
		// it (or unparkJob re-queues it if the freeze aborts). The check
		// sits where every boundary passes and no instruction is half
		// applied; markers were already handled above.
		if j := t.job; j != nil && j.freezeBarrier && f.CM.AtBytecodeBoundary(f.PC) {
			t.State = StateBlocked
			j.parked = append(j.parked, t)
			return
		}
		// Superblock fast path: when a block starts here (built on first
		// entry) and fits strictly inside the quantum (every prefix the
		// reference interpreter would check also fits, so deadline
		// semantics are unchanged), apply it in one step. Any divergence
		// falls through to step, which IS the reference semantics.
		if !vm.sbOff && f.CM.SB != nil {
			if b := f.CM.Block(f.PC); b.Len != 0 && core.Now+b.Cycles < deadline {
				vm.fastForward(core, t, f, b, deadline)
				continue
			}
		}
		in := f.CM.Code[f.PC]
		core.Charge(in.Op.Class(), uint64(in.Cost))
		if f.ctr != nil {
			f.ctr.Cycles[in.Op.Class()] += uint64(in.Cost)
		}
		core.Stats.Instrs++
		if err := vm.step(core, t, f, in); err != nil {
			vm.raise(core, t, err)
			if t.State != StateRunning {
				return
			}
		}
	}
}

// trap terminates a thread with an error, releasing any monitors it
// owns so other threads do not deadlock on a dead owner.
func (vm *VM) trap(core *cell.Core, t *Thread, err error) {
	t.Trap = err
	t.State = StateTerminated
	for obj, m := range vm.monitors {
		if m.owner == t {
			m.owner = nil
			m.count = 0
			vm.writeLockWord(obj, m)
			vm.wakeBlocked(core, m)
		}
	}
}

func (vm *VM) trapAt(f *Frame, kind, detail string) error {
	sig := "?"
	pc := 0
	if f != nil && f.CM != nil {
		sig = f.CM.M.Sig()
		pc = f.PC
	}
	return &TrapError{Kind: kind, Detail: detail, Method: sig, PC: pc}
}

// chargeDyn adds dynamically determined cycles (cache misses, DMA
// waits) to the per-method monitor counters; the core clock was already
// advanced by the memory subsystem.
func (f *Frame) chargeDyn(class isa.OpClass, n uint64) {
	if f.ctr != nil {
		f.ctr.Cycles[class] += n
	}
}

// step executes one instruction. It returns a TrapError to kill the
// thread; all other control effects (blocking, migration, termination)
// are applied to t directly.
func (vm *VM) step(core *cell.Core, t *Thread, f *Frame, in isa.Instr) error {
	adv := true // advance PC unless a branch/call handled it
	main := vm.Machine.Mem

	popI := func() int32 { v, _ := f.pop(); return int32(uint32(v)) }
	pushI := func(v int32) { f.push(uint64(uint32(v)), false) }
	popL := func() int64 { v, _ := f.pop(); return int64(v) }
	pushL := func(v int64) { f.push(uint64(v), false) }
	popF := func() float32 { v, _ := f.pop(); return math.Float32frombits(uint32(v)) }
	pushF := func(v float32) { f.push(uint64(math.Float32bits(v)), false) }
	popD := func() float64 { v, _ := f.pop(); return math.Float64frombits(v) }
	pushD := func(v float64) { f.push(math.Float64bits(v), false) }
	popRef := func() Ref { v, _ := f.pop(); return Ref(v) }
	pushRef := func(r Ref) { f.push(uint64(r), true) }

	// The kind's branch model: a hardware predictor charges its penalty
	// on mispredicts; a statically hinted core (the compiler hints
	// fall-through) pays the kind's BranchTakenExtra on every taken
	// conditional branch.
	branch := func(target int32, taken bool) {
		if core.BP != nil {
			site := uint32(f.CM.M.ID)<<12 ^ uint32(f.PC)
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
			f.PC = int(target)
			adv = false
		}
	}

	switch in.Op {
	case isa.OpNop:

	case isa.OpPushConst:
		f.push(uint64(uint32(in.A))|uint64(uint32(in.B))<<32, in.C == 1)
	case isa.OpLoadLocal:
		f.push(f.Locals[in.A], f.LocalRefs[in.A])
	case isa.OpStoreLocal:
		v, r := f.pop()
		f.Locals[in.A] = v
		f.LocalRefs[in.A] = r
	case isa.OpPop:
		f.pop()
	case isa.OpPop2:
		f.pop()
		f.pop()
	case isa.OpDup:
		v, r := f.pop()
		f.push(v, r)
		f.push(v, r)
	case isa.OpDupX1:
		a, ar := f.pop()
		b, br := f.pop()
		f.push(a, ar)
		f.push(b, br)
		f.push(a, ar)
	case isa.OpDupX2:
		a, ar := f.pop()
		b, br := f.pop()
		c, cr := f.pop()
		f.push(a, ar)
		f.push(c, cr)
		f.push(b, br)
		f.push(a, ar)
	case isa.OpDup2:
		a, ar := f.pop()
		b, br := f.pop()
		f.push(b, br)
		f.push(a, ar)
		f.push(b, br)
		f.push(a, ar)
	case isa.OpSwap:
		a, ar := f.pop()
		b, br := f.pop()
		f.push(a, ar)
		f.push(b, br)
	case isa.OpIncLocal:
		f.Locals[in.A] = uint64(uint32(int32(uint32(f.Locals[in.A])) + in.B))

	// --- int ---
	case isa.OpAddI:
		b, a := popI(), popI()
		pushI(a + b)
	case isa.OpSubI:
		b, a := popI(), popI()
		pushI(a - b)
	case isa.OpMulI:
		b, a := popI(), popI()
		pushI(a * b)
	case isa.OpDivI:
		b, a := popI(), popI()
		if b == 0 {
			return vm.trapAt(f, "ArithmeticException", "/ by zero")
		}
		if a == math.MinInt32 && b == -1 {
			pushI(math.MinInt32)
		} else {
			pushI(a / b)
		}
	case isa.OpRemI:
		b, a := popI(), popI()
		if b == 0 {
			return vm.trapAt(f, "ArithmeticException", "% by zero")
		}
		if a == math.MinInt32 && b == -1 {
			pushI(0)
		} else {
			pushI(a % b)
		}
	case isa.OpNegI:
		pushI(-popI())
	case isa.OpAndI:
		b, a := popI(), popI()
		pushI(a & b)
	case isa.OpOrI:
		b, a := popI(), popI()
		pushI(a | b)
	case isa.OpXorI:
		b, a := popI(), popI()
		pushI(a ^ b)
	case isa.OpShlI:
		b, a := popI(), popI()
		pushI(a << (uint32(b) & 31))
	case isa.OpShrI:
		b, a := popI(), popI()
		pushI(a >> (uint32(b) & 31))
	case isa.OpUShrI:
		b, a := popI(), popI()
		pushI(int32(uint32(a) >> (uint32(b) & 31)))

	// --- long ---
	case isa.OpAddL:
		b, a := popL(), popL()
		pushL(a + b)
	case isa.OpSubL:
		b, a := popL(), popL()
		pushL(a - b)
	case isa.OpMulL:
		b, a := popL(), popL()
		pushL(a * b)
	case isa.OpDivL:
		b, a := popL(), popL()
		if b == 0 {
			return vm.trapAt(f, "ArithmeticException", "/ by zero")
		}
		if a == math.MinInt64 && b == -1 {
			pushL(math.MinInt64)
		} else {
			pushL(a / b)
		}
	case isa.OpRemL:
		b, a := popL(), popL()
		if b == 0 {
			return vm.trapAt(f, "ArithmeticException", "% by zero")
		}
		if a == math.MinInt64 && b == -1 {
			pushL(0)
		} else {
			pushL(a % b)
		}
	case isa.OpNegL:
		pushL(-popL())
	case isa.OpAndL:
		b, a := popL(), popL()
		pushL(a & b)
	case isa.OpOrL:
		b, a := popL(), popL()
		pushL(a | b)
	case isa.OpXorL:
		b, a := popL(), popL()
		pushL(a ^ b)
	case isa.OpShlL:
		b, a := popI(), popL()
		pushL(a << (uint32(b) & 63))
	case isa.OpShrL:
		b, a := popI(), popL()
		pushL(a >> (uint32(b) & 63))
	case isa.OpUShrL:
		b, a := popI(), popL()
		pushL(int64(uint64(a) >> (uint32(b) & 63)))
	case isa.OpCmpL:
		b, a := popL(), popL()
		pushI(cmpOrder(a < b, a == b))

	// --- float ---
	case isa.OpAddF:
		b, a := popF(), popF()
		pushF(a + b)
	case isa.OpSubF:
		b, a := popF(), popF()
		pushF(a - b)
	case isa.OpMulF:
		b, a := popF(), popF()
		pushF(a * b)
	case isa.OpDivF:
		b, a := popF(), popF()
		pushF(a / b)
	case isa.OpNegF:
		pushF(-popF())
	case isa.OpRemF:
		b, a := popF(), popF()
		pushF(float32(math.Mod(float64(a), float64(b))))
	case isa.OpCmpF:
		b, a := popF(), popF()
		if a != a || b != b { // NaN
			pushI(in.A)
		} else {
			pushI(cmpOrder(a < b, a == b))
		}

	// --- double ---
	case isa.OpAddD:
		b, a := popD(), popD()
		pushD(a + b)
	case isa.OpSubD:
		b, a := popD(), popD()
		pushD(a - b)
	case isa.OpMulD:
		b, a := popD(), popD()
		pushD(a * b)
	case isa.OpDivD:
		b, a := popD(), popD()
		pushD(a / b)
	case isa.OpNegD:
		pushD(-popD())
	case isa.OpRemD:
		b, a := popD(), popD()
		pushD(math.Mod(a, b))
	case isa.OpCmpD:
		b, a := popD(), popD()
		if a != a || b != b {
			pushI(in.A)
		} else {
			pushI(cmpOrder(a < b, a == b))
		}

	// --- conversions ---
	case isa.OpI2L:
		pushL(int64(popI()))
	case isa.OpI2F:
		pushF(float32(popI()))
	case isa.OpI2D:
		pushD(float64(popI()))
	case isa.OpL2I:
		pushI(int32(popL()))
	case isa.OpL2F:
		pushF(float32(popL()))
	case isa.OpL2D:
		pushD(float64(popL()))
	case isa.OpF2I:
		pushI(f2i(float64(popF())))
	case isa.OpF2L:
		pushL(d2l(float64(popF())))
	case isa.OpF2D:
		pushD(float64(popF()))
	case isa.OpD2I:
		pushI(f2i(popD()))
	case isa.OpD2L:
		pushL(d2l(popD()))
	case isa.OpD2F:
		pushF(float32(popD()))
	case isa.OpI2B:
		pushI(int32(int8(popI())))
	case isa.OpI2C:
		pushI(int32(uint16(popI())))
	case isa.OpI2S:
		pushI(int32(int16(popI())))

	// --- control ---
	case isa.OpGoto:
		f.PC = int(in.A)
		adv = false
	case isa.OpIf:
		v := popI()
		branch(in.B, condHolds(in.A, compare32(v, 0)))
	case isa.OpIfCmpI:
		b, a := popI(), popI()
		branch(in.B, condHolds(in.A, compare32(a, b)))
	case isa.OpIfCmpRef:
		b, a := popRef(), popRef()
		eq := a == b
		taken := (in.A == isa.CondEQ && eq) || (in.A == isa.CondNE && !eq)
		branch(in.B, taken)
	case isa.OpIfNull:
		r := popRef()
		taken := (in.A == 0 && r == 0) || (in.A == 1 && r != 0)
		branch(in.B, taken)
	case isa.OpTableSwitch:
		idx := popI()
		table := f.CM.Tables[in.C]
		if idx >= in.A && int(idx-in.A) < len(table) {
			f.PC = int(table[idx-in.A])
		} else {
			f.PC = int(in.B)
		}
		adv = false
	case isa.OpLookupSwitch:
		key := popI()
		table := f.CM.Tables[in.C]
		keys := f.CM.Keys[in.C]
		f.PC = int(in.B)
		for i, k := range keys {
			if k == key {
				f.PC = int(table[i])
				break
			}
		}
		adv = false

	// --- calls ---
	case isa.OpCallStatic, isa.OpCallSpecial:
		callee := vm.Prog.MethodByID(int(in.A))
		f.PC++
		adv = false
		return vm.invoke(core, t, f, callee)
	case isa.OpCallVirtual:
		declared := vm.classByID[in.B].VTable[in.A]
		recv := Ref(f.Stack[f.SP-1-len(declared.Params)])
		if recv == 0 {
			return vm.trapAt(f, "NullPointerException", "virtual call on null")
		}
		callee := declared
		if cls := vm.classOf(recv); cls != nil {
			callee = cls.VTable[in.A]
		} else {
			// Arrays dispatch through Object's vtable.
			callee = vm.Prog.Object.VTable[in.A]
		}
		f.PC++
		adv = false
		return vm.invoke(core, t, f, callee)
	case isa.OpCallInterface:
		im := vm.ifaceMethods[int(in.A)]
		recv := Ref(f.Stack[f.SP-1-len(im.Params)])
		if recv == 0 {
			return vm.trapAt(f, "NullPointerException", "interface call on null")
		}
		cls := vm.classOf(recv)
		if cls == nil {
			return vm.trapAt(f, "IncompatibleClassChangeError", "interface call on array")
		}
		callee := cls.ITable[int(in.A)]
		if callee == nil {
			return vm.trapAt(f, "AbstractMethodError", im.Sig())
		}
		f.PC++
		adv = false
		return vm.invoke(core, t, f, callee)
	case isa.OpReturn:
		var val uint64
		var isRef bool
		if in.A == 1 {
			val, isRef = f.pop()
		}
		vm.returnFrom(core, t, val, isRef, in.A == 1)
		adv = false

	// --- heap ---
	case isa.OpGetField:
		ref := popRef()
		if ref == 0 {
			return vm.trapAt(f, "NullPointerException", "getfield")
		}
		v := vm.loadMem(core, f, ref, vm.objectSize(ref), uint32(in.A), 8, in.B, false)
		f.push(v, in.B&isa.FlagRef != 0)
	case isa.OpPutField:
		v, _ := f.pop()
		ref := popRef()
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
	case isa.OpALoad:
		idx := popI()
		arr := popRef()
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
		idx := popI()
		arr := popRef()
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
		arr := popRef()
		if arr == 0 {
			return vm.trapAt(f, "NullPointerException", "arraylength")
		}
		pushI(int32(vm.arrayLength(core, f, arr)))

	// --- allocation and type tests ---
	case isa.OpNew:
		obj, err := vm.allocObject(vm.classByID[in.A])
		if err != nil {
			return vm.trapAt(f, "OutOfMemoryError", err.Error())
		}
		pushRef(obj)
	case isa.OpNewArray, isa.OpANewArray:
		n := popI()
		if n < 0 {
			return vm.trapAt(f, "NegativeArraySizeException", fmt.Sprintf("%d", n))
		}
		kind := isa.ElemKind(in.A)
		if in.Op == isa.OpANewArray {
			kind = isa.ElemRef
		}
		arr, err := vm.allocArray(kind, uint32(n))
		if err != nil {
			return vm.trapAt(f, "OutOfMemoryError", err.Error())
		}
		pushRef(arr)
	case isa.OpInstanceOf:
		r := popRef()
		pushI(boolToI(r != 0 && vm.isInstance(r, vm.classByID[in.A])))
	case isa.OpCheckCast:
		r := popRef()
		if r != 0 && !vm.isInstance(r, vm.classByID[in.A]) {
			return vm.trapAt(f, "ClassCastException",
				fmt.Sprintf("%#x is not a %s", r, vm.classByID[in.A].Name))
		}
		pushRef(r)

	// --- synchronisation ---
	case isa.OpMonitorEnter:
		obj := popRef()
		if obj == 0 {
			return vm.trapAt(f, "NullPointerException", "monitorenter")
		}
		f.PC++
		adv = false
		if !vm.monitorEnter(core, t, obj) {
			t.needPurge = core.Kind.UsesLocalStore()
		}
	case isa.OpMonitorExit:
		obj := popRef()
		if obj == 0 {
			return vm.trapAt(f, "NullPointerException", "monitorexit")
		}
		if err := vm.monitorExit(core, t, obj); err != nil {
			return err
		}
	case isa.OpThrow:
		r := popRef()
		if r == 0 {
			return vm.trapAt(f, "NullPointerException", "athrow on null")
		}
		return thrownError{ref: r}

	default:
		return vm.trapAt(f, "InternalError", fmt.Sprintf("unhandled opcode %v", in.Op))
	}

	if adv {
		f.PC++
	}
	_ = main
	return nil
}

func cmpOrder(less, eq bool) int32 {
	switch {
	case less:
		return -1
	case eq:
		return 0
	default:
		return 1
	}
}

func compare32(a, b int32) int32 {
	switch {
	case a < b:
		return -1
	case a == b:
		return 0
	default:
		return 1
	}
}

func condHolds(cond, order int32) bool {
	switch cond {
	case isa.CondEQ:
		return order == 0
	case isa.CondNE:
		return order != 0
	case isa.CondLT:
		return order < 0
	case isa.CondGE:
		return order >= 0
	case isa.CondGT:
		return order > 0
	case isa.CondLE:
		return order <= 0
	}
	return false
}

func boolToI(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// f2i converts with Java semantics: NaN -> 0, saturating at int bounds.
func f2i(v float64) int32 {
	switch {
	case v != v:
		return 0
	case v >= math.MaxInt32:
		return math.MaxInt32
	case v <= math.MinInt32:
		return math.MinInt32
	}
	return int32(v)
}

// d2l converts with Java semantics for long.
func d2l(v float64) int64 {
	switch {
	case v != v:
		return 0
	case v >= math.MaxInt64:
		return math.MaxInt64
	case v <= math.MinInt64:
		return math.MinInt64
	}
	return int64(v)
}

// extendElem widens a raw array element to its stack representation.
func extendElem(k isa.ElemKind, raw uint64) uint64 {
	switch k {
	case isa.ElemBool, isa.ElemByte:
		return uint64(uint32(int32(int8(raw))))
	case isa.ElemChar:
		return uint64(uint32(uint16(raw)))
	case isa.ElemShort:
		return uint64(uint32(int32(int16(raw))))
	case isa.ElemInt, isa.ElemFloat:
		return raw & 0xffffffff
	default:
		return raw
	}
}

// isInstance implements instanceof/checkcast over the class hierarchy;
// arrays are instances of Object only (array covariance is out of
// scope, DESIGN.md §6).
func (vm *VM) isInstance(r Ref, target *classfile.Class) bool {
	cls := vm.classOf(r)
	if cls == nil {
		return target == vm.Prog.Object
	}
	return cls.IsSubclassOf(target)
}

// arrayLength reads the length word from an array header through the
// memory system (a real load in baseline-compiled code).
func (vm *VM) arrayLength(core *cell.Core, f *Frame, arr Ref) uint32 {
	v := vm.loadMem(core, f, arr, isa.HeaderBytes, isa.HeaderLengthOff, 4, 0, false)
	return uint32(v)
}

// loadMem performs a data load through the core's memory path:
//   - local-store kinds: the software data cache (whole-object or
//     array-block policy per isArray), honouring volatile
//     purge-before-read;
//   - hardware-cached kinds: the L1/L2 hardware model plus a direct
//     main-memory read.
//
// unit is the base address of the cacheable unit (object header or array
// data), unitSize its size, off the byte offset of the access.
func (vm *VM) loadMem(core *cell.Core, f *Frame, unit Ref, unitSize, off, width uint32, flags int32, isArray bool) uint64 {
	if dc := vm.dcaches[core.Index]; dc != nil {
		if flags&isa.FlagVolatile != 0 && !vm.Cfg.UnsafeNoCoherence {
			core.Now = dc.Purge(core.Now) // acquire: observe other cores' writes
		}
		before := core.Now
		var v uint64
		if isArray {
			v, core.Now = dc.ReadArray(core.Now, unit, unitSize, off, width)
		} else {
			v, core.Now = dc.ReadObject(core.Now, unit, unitSize, off, width)
		}
		f.chargeDyn(isa.ClassLocalMem, core.Now-before)
		return v
	}
	cycles, l1 := core.Mem.Access(unit+off, width)
	class := isa.ClassLocalMem
	if !l1 {
		class = isa.ClassMainMem
		core.Stats.DataMisses++
	} else {
		core.Stats.DataHits++
	}
	core.Charge(class, uint64(cycles))
	f.chargeDyn(class, uint64(cycles))
	return readMain(vm, unit+off, width)
}

// storeMem is the store counterpart of loadMem, honouring volatile
// flush-after-write on local-store kinds.
func (vm *VM) storeMem(core *cell.Core, f *Frame, unit Ref, unitSize, off, width uint32, val uint64, flags int32, isArray bool) {
	if dc := vm.dcaches[core.Index]; dc != nil {
		before := core.Now
		if isArray {
			core.Now = dc.WriteArray(core.Now, unit, unitSize, off, width, val)
		} else {
			core.Now = dc.WriteObject(core.Now, unit, unitSize, off, width, val)
		}
		if flags&isa.FlagVolatile != 0 && !vm.Cfg.UnsafeNoCoherence {
			core.Now = dc.Flush(core.Now) // release: publish this write
		}
		f.chargeDyn(isa.ClassLocalMem, core.Now-before)
		return
	}
	cycles, l1 := core.Mem.Access(unit+off, width)
	class := isa.ClassLocalMem
	if !l1 {
		class = isa.ClassMainMem
		core.Stats.DataMisses++
	} else {
		core.Stats.DataHits++
	}
	core.Charge(class, uint64(cycles))
	f.chargeDyn(class, uint64(cycles))
	writeMain(vm, unit+off, width, val)
}

func readMain(vm *VM, addr uint32, width uint32) uint64 {
	switch width {
	case 1:
		return uint64(vm.Machine.Mem.Read8(addr))
	case 2:
		return uint64(vm.Machine.Mem.Read16(addr))
	case 4:
		return uint64(vm.Machine.Mem.Read32(addr))
	default:
		return vm.Machine.Mem.Read64(addr)
	}
}

func writeMain(vm *VM, addr uint32, width uint32, v uint64) {
	switch width {
	case 1:
		vm.Machine.Mem.Write8(addr, uint8(v))
	case 2:
		vm.Machine.Mem.Write16(addr, uint16(v))
	case 4:
		vm.Machine.Mem.Write32(addr, uint32(v))
	default:
		vm.Machine.Mem.Write64(addr, v)
	}
}
