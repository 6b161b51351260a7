package jit

import (
	"math"
	"slices"

	"herajvm/internal/isa"
)

// This file lowers a superblock's stack-machine instructions into
// slot-addressed micro-ops when the block is built, the first time
// execution enters it (CompiledMethod.Block), so the executor's fast
// path can replay a block without per-instruction operand-stack
// bookkeeping. The lowering is a static stack-to-slot conversion: the
// compiler tracks a symbolic operand stack, folds constants into
// immediate operands, forwards LoadLocal/StoreLocal through direct
// local addressing, and sinks a result produced immediately before a
// StoreLocal straight into the local. A typical
// `LoadLocal a; LoadLocal b; MulI; StoreLocal c` sequence becomes the
// single micro-op `local c <- local a * local b`.
//
// The replay contract is byte-identical to per-instruction stepping:
// after a block replays, frame state (locals, operand stack and both
// reference maps up to the final SP) must equal what step produces.
// Lowering is total — every block the run scan admits lowers. A block
// entered mid-expression (after a call returns, after a `new`, after a
// quantum expiry) pops operands pushed before it; those are its Entry
// slots, the lowest slots above the replay base (entry SP minus
// Entry), addressed like any other slot. The stack shuffles that would
// move a value below its slot (swap, dup_x1, dup_x2) are not in the
// run scan's pure set, so step runs them.

// MicroOp is one slot-addressed operation. D, A and B address frame
// storage: a non-negative value is an operand-stack slot relative to
// the block's replay base (entry SP minus Superblock.Entry), a negative value -(i+1) is local variable i,
// and the sentinel MicroImm (operands only) selects the Imm field.
// At most one of A/B is MicroImm, so one Imm field serves both; the
// compare ops repurpose Imm for their NaN result and never take
// immediate operands.
type MicroOp struct {
	Code uint8
	D    int32
	A    int32
	B    int32
	Imm  uint64
}

// MicroImm marks an operand that reads MicroOp.Imm.
const MicroImm int32 = math.MinInt32

// FlagWrite is one deferred reference-map update applied after a
// block's value micro-ops. Src 0 writes false, 1 writes true, j+2
// copies the block-entry value of LocalRefs[j], and -(i+1) copies the
// block-entry StackRefs of entry slot i. All sources are resolved
// against entry state: local flag writes land only after every source
// is read, and the replay snapshots the entry slots' flags before any
// write (a memory load writes its result's flag at once, and a
// `dup; storelocal` copy of an entry value can outlive its slot).
type FlagWrite struct {
	// Idx is a local index (local-flag list) or a base-relative stack
	// slot (stack-flag list).
	Idx int32
	Src int32
}

// Micro-op codes. The arithmetic codes mirror the isa ops of the same
// name exactly — each replay case must be semantically identical to the
// corresponding step case, including shift masking, divide
// MinInt/-1 behaviour and float NaN handling.
const (
	MMov uint8 = iota // D <- A (raw 64-bit copy)
	MMovImm
	MAddI
	MSubI
	MMulI
	MDivI
	MRemI
	MNegI
	MAndI
	MOrI
	MXorI
	MShlI
	MShrI
	MUShrI
	MAddL
	MSubL
	MMulL
	MDivL
	MRemL
	MNegL
	MAndL
	MOrL
	MXorL
	MShlL
	MShrL
	MUShrL
	MCmpL
	MAddF
	MSubF
	MMulF
	MDivF
	MNegF
	MRemF
	MCmpF
	MAddD
	MSubD
	MMulD
	MDivD
	MNegD
	MRemD
	MCmpD
	MI2L
	MI2F
	MI2D
	ML2I
	ML2F
	ML2D
	MF2I
	MF2L
	MF2D
	MD2I
	MD2L
	MD2F
	MI2B
	MI2C
	MI2S

	// Memory micro-ops, one per absorbable memory instruction. Each is
	// paired in order with a MemBound entry on the superblock; the
	// executor charges the instruction's static cost, runs the
	// step-identical cache/heap semantics with the micro-op's operands,
	// and then charges the following pure segment. Loads write their
	// result (value and reference flag) directly at D, always a stack
	// slot: the result must sit at its stepped stack position in case
	// the replay hands back at the next instruction.
	MALoad     // D <- Kind-typed element of array A at index B
	MAStore    // array A at index B <- D (D is a source here)
	MArrayLen  // D <- length of array A
	MGetField  // D <- field Kind of object A
	MPutField  // field Kind of object A <- B
	MGetStatic // D <- static slot Kind
	MPutStatic // static slot Kind <- A
)

// microForOp maps a pure isa op to its micro-op code (valid only for
// the stack-neutral arithmetic/conversion ops; stack-shape ops are
// handled structurally by the compiler).
var microForOp = map[isa.Op]uint8{
	isa.OpAddI: MAddI, isa.OpSubI: MSubI, isa.OpMulI: MMulI,
	isa.OpDivI: MDivI, isa.OpRemI: MRemI, isa.OpNegI: MNegI,
	isa.OpAndI: MAndI, isa.OpOrI: MOrI, isa.OpXorI: MXorI,
	isa.OpShlI: MShlI, isa.OpShrI: MShrI, isa.OpUShrI: MUShrI,
	isa.OpAddL: MAddL, isa.OpSubL: MSubL, isa.OpMulL: MMulL,
	isa.OpDivL: MDivL, isa.OpRemL: MRemL, isa.OpNegL: MNegL,
	isa.OpAndL: MAndL, isa.OpOrL: MOrL, isa.OpXorL: MXorL,
	isa.OpShlL: MShlL, isa.OpShrL: MShrL, isa.OpUShrL: MUShrL,
	isa.OpCmpL: MCmpL,
	isa.OpAddF: MAddF, isa.OpSubF: MSubF, isa.OpMulF: MMulF,
	isa.OpDivF: MDivF, isa.OpNegF: MNegF, isa.OpRemF: MRemF,
	isa.OpCmpF: MCmpF,
	isa.OpAddD: MAddD, isa.OpSubD: MSubD, isa.OpMulD: MMulD,
	isa.OpDivD: MDivD, isa.OpNegD: MNegD, isa.OpRemD: MRemD,
	isa.OpCmpD: MCmpD,
	isa.OpI2L:  MI2L, isa.OpI2F: MI2F, isa.OpI2D: MI2D,
	isa.OpL2I: ML2I, isa.OpL2F: ML2F, isa.OpL2D: ML2D,
	isa.OpF2I: MF2I, isa.OpF2L: MF2L, isa.OpF2D: MF2D,
	isa.OpD2I: MD2I, isa.OpD2L: MD2L, isa.OpD2F: MD2F,
	isa.OpI2B: MI2B, isa.OpI2C: MI2C, isa.OpI2S: MI2S,
}

// unaryOp reports whether the isa op pops one value and pushes one.
func unaryOp(op isa.Op) bool {
	switch op {
	case isa.OpNegI, isa.OpNegL, isa.OpNegF, isa.OpNegD,
		isa.OpI2L, isa.OpI2F, isa.OpI2D, isa.OpL2I, isa.OpL2F, isa.OpL2D,
		isa.OpF2I, isa.OpF2L, isa.OpF2D, isa.OpD2I, isa.OpD2L, isa.OpD2F,
		isa.OpI2B, isa.OpI2C, isa.OpI2S:
		return true
	}
	return false
}

// stackEffect is how many operand-stack slots each op a superblock can
// hold pops and then pushes: the pure set, the absorbable memory
// instructions, and the terminal branches, which pop their comparison
// operands.
func stackEffect(op isa.Op) (pops, pushes int32) {
	switch op {
	case isa.OpPushConst, isa.OpLoadLocal, isa.OpGetStatic:
		return 0, 1
	case isa.OpStoreLocal, isa.OpPop, isa.OpPutStatic, isa.OpIf, isa.OpIfNull:
		return 1, 0
	case isa.OpPop2, isa.OpPutField, isa.OpIfCmpI, isa.OpIfCmpRef:
		return 2, 0
	case isa.OpAStore:
		return 3, 0
	case isa.OpDup:
		return 1, 2
	case isa.OpDup2:
		return 2, 4
	case isa.OpALoad:
		return 2, 1
	case isa.OpArrayLen, isa.OpGetField:
		return 1, 1
	}
	if unaryOp(op) {
		return 1, 1
	}
	if _, ok := microForOp[op]; ok {
		return 2, 1
	}
	return 0, 0 // nop, goto, inclocal
}

// Symbolic value kinds tracked on the compile-time stack.
const (
	symImm   uint8 = iota // a constant; value in sym.imm
	symLocal              // the current runtime value of local sym.idx
	symSlot               // a value materialised at stack slot sym.idx
)

type sym struct {
	kind uint8
	idx  int32 // local index (symLocal) or stack slot (symSlot)
	imm  uint64
	flag int32 // reference flag as a FlagWrite source
}

// microCompiler lowers one block. The central invariant is that a
// symSlot's slot index never exceeds its current stack position (entry
// slots start at their own positions, new values materialise at their
// own position, and Dup copies upward), so a result written at
// position d can never clobber a slot a live lower value still
// references.
//
// A second invariant backs the shadow materialisations: a live symSlot
// at position p with backing slot q < p only arises from Dup-copying
// the entry at position q, which stays live (and identical) below it —
// stack discipline pops the copy first — so slot q still holds the
// value whenever the shadow mat replays.
type microCompiler struct {
	micro  []MicroOp
	vstack []sym
	// localFlag holds, for each local the block writes, the flag
	// source of its last store, sorted by local index: it is the
	// block's deferred local-flag list as it stands.
	localFlag []FlagWrite
	maxDepth  int32
	// low is the lowest stack depth reached so far. Positions below it
	// still hold their entry value and flag, so no materialisation or
	// flag write ever needs to touch them.
	low int

	// Memory-absorption state: the per-boundary metadata, the pure
	// segment after each boundary, shadow materialisations and flag
	// snapshots for abort/trap exits, and the running accumulator for
	// the current pure segment. noSink bars result-sinking across a
	// memory micro-op (its result must land at its stack position: a
	// quantum expiry right after it resumes before any StoreLocal).
	bounds   []MemBound
	segs     []Seg
	mats     []MicroOp
	blf, bsf []FlagWrite
	segLen   int32
	segCyc   uint64
	segCls   [isa.NumClasses]uint64
	firstLen int32
	firstCyc uint64
	firstCls [isa.NumClasses]uint64
	noSink   int
}

func (c *microCompiler) push(v sym) {
	c.vstack = append(c.vstack, v)
	if d := int32(len(c.vstack)); d > c.maxDepth {
		c.maxDepth = d
	}
}

func (c *microCompiler) pop() sym {
	n := len(c.vstack) - 1
	v := c.vstack[n]
	c.vstack = c.vstack[:n]
	c.low = min(c.low, n)
	return v
}

// flagOfLocal is the compile-time reference flag of local i: the
// block's own last store to it, or its block-entry value.
func (c *microCompiler) flagOfLocal(i int32) int32 {
	if k, ok := c.findLocal(i); ok {
		return c.localFlag[k].Src
	}
	return i + 2
}

// setLocalFlag records src as local i's flag source after a store.
func (c *microCompiler) setLocalFlag(i, src int32) {
	k, ok := c.findLocal(i)
	if !ok {
		c.localFlag = slices.Insert(c.localFlag, k, FlagWrite{Idx: i})
	}
	c.localFlag[k].Src = src
}

func (c *microCompiler) findLocal(i int32) (int, bool) {
	return slices.BinarySearchFunc(c.localFlag, i, func(w FlagWrite, i int32) int {
		return int(w.Idx - i)
	})
}

// matLocal materialises every live symbolic reference to local i into
// its own stack slot; it must run before any micro-op writes local i,
// because those symbols denote the local's pre-write value.
func (c *microCompiler) matLocal(i int32) {
	for p := range c.vstack {
		v := &c.vstack[p]
		if v.kind == symLocal && v.idx == i {
			c.micro = append(c.micro, MicroOp{Code: MMov, D: int32(p), A: -(i + 1)})
			*v = sym{kind: symSlot, idx: int32(p), flag: v.flag}
		}
	}
}

// operand renders a symbolic value as a micro-op operand. A symImm
// needs the shared Imm field; the caller materialises one side first
// when both operands are immediate (or folds the op entirely).
func operand(v sym) (o int32, imm uint64) {
	switch v.kind {
	case symImm:
		return MicroImm, v.imm
	case symLocal:
		return -(v.idx + 1), 0
	default:
		return v.idx, 0
	}
}

// matOp is the micro-op that copies symbolic value v into stack slot
// at (a no-op MMov when v already lives there).
func matOp(v sym, at int32) MicroOp {
	switch v.kind {
	case symImm:
		return MicroOp{Code: MMovImm, D: at, Imm: v.imm}
	case symLocal:
		return MicroOp{Code: MMov, D: at, A: -(v.idx + 1)}
	default:
		return MicroOp{Code: MMov, D: at, A: v.idx}
	}
}

// materialise forces a symbolic value into stack slot `at` and returns
// the updated symbol.
func (c *microCompiler) materialise(v sym, at int32) sym {
	if v.kind != symSlot || v.idx != at {
		c.micro = append(c.micro, matOp(v, at))
	}
	return sym{kind: symSlot, idx: at, flag: v.flag}
}

// appendFlags appends to lf and sf the deferred reference-flag writes
// that make the maps match stepping at this point: every local the
// block has written, in index order, and the stack positions that may
// have changed since entry.
func (c *microCompiler) appendFlags(lf, sf []FlagWrite) ([]FlagWrite, []FlagWrite) {
	for p := c.low; p < len(c.vstack); p++ {
		sf = append(sf, FlagWrite{Idx: int32(p), Src: c.vstack[p].flag})
	}
	return append(lf, c.localFlag...), sf
}

// foldInt32 evaluates two-operand int ops over constants, mirroring
// the step cases exactly. Only non-trapping integer ops fold; floats
// never fold so their bit-exact behaviour stays in one place (replay).
func foldInt32(op isa.Op, a, b int32) (int32, bool) {
	switch op {
	case isa.OpAddI:
		return a + b, true
	case isa.OpSubI:
		return a - b, true
	case isa.OpMulI:
		return a * b, true
	case isa.OpAndI:
		return a & b, true
	case isa.OpOrI:
		return a | b, true
	case isa.OpXorI:
		return a ^ b, true
	case isa.OpShlI:
		return a << (uint32(b) & 31), true
	case isa.OpShrI:
		return a >> (uint32(b) & 31), true
	case isa.OpUShrI:
		return int32(uint32(a) >> (uint32(b) & 31)), true
	}
	return 0, false
}

func foldInt64(op isa.Op, a, b int64) (int64, bool) {
	switch op {
	case isa.OpAddL:
		return a + b, true
	case isa.OpSubL:
		return a - b, true
	case isa.OpMulL:
		return a * b, true
	case isa.OpAndL:
		return a & b, true
	case isa.OpOrL:
		return a | b, true
	case isa.OpXorL:
		return a ^ b, true
	}
	return 0, false
}

// binary lowers a two-operand arithmetic op. NaN-sensitive compares
// pass their nan result through Imm, so immediate operands are
// materialised for them.
func (c *microCompiler) binary(in isa.Instr) {
	code := microForOp[in.Op]
	b := c.pop()
	a := c.pop()
	if a.kind == symImm && b.kind == symImm {
		if v, did := foldInt32(in.Op, int32(uint32(a.imm)), int32(uint32(b.imm))); did {
			c.push(sym{kind: symImm, imm: uint64(uint32(v))})
			return
		}
		if v, did := foldInt64(in.Op, int64(a.imm), int64(b.imm)); did {
			c.push(sym{kind: symImm, imm: uint64(v)})
			return
		}
	}
	d := int32(len(c.vstack))
	cmpNaN := in.Op == isa.OpCmpF || in.Op == isa.OpCmpD
	if a.kind == symImm && (b.kind == symImm || cmpNaN) {
		a = c.materialise(a, d)
	}
	if b.kind == symImm && cmpNaN {
		b = c.materialise(b, d+1)
	}
	oa, immA := operand(a)
	ob, immB := operand(b)
	imm := immA | immB
	if cmpNaN {
		imm = uint64(uint32(in.A))
	}
	c.micro = append(c.micro, MicroOp{Code: code, D: d, A: oa, B: ob, Imm: imm})
	c.push(sym{kind: symSlot, idx: d})
}

func (c *microCompiler) unary(in isa.Instr) {
	code := microForOp[in.Op]
	a := c.pop()
	if a.kind == symImm {
		switch in.Op {
		case isa.OpNegI:
			c.push(sym{kind: symImm, imm: uint64(uint32(-int32(uint32(a.imm))))})
			return
		case isa.OpNegL:
			c.push(sym{kind: symImm, imm: uint64(-int64(a.imm))})
			return
		case isa.OpI2B:
			c.push(sym{kind: symImm, imm: uint64(uint32(int32(int8(int32(uint32(a.imm))))))})
			return
		case isa.OpI2C:
			c.push(sym{kind: symImm, imm: uint64(uint32(int32(uint16(int32(uint32(a.imm))))))})
			return
		case isa.OpI2S:
			c.push(sym{kind: symImm, imm: uint64(uint32(int32(int16(int32(uint32(a.imm))))))})
			return
		case isa.OpI2L:
			c.push(sym{kind: symImm, imm: uint64(int64(int32(uint32(a.imm))))})
			return
		case isa.OpL2I:
			c.push(sym{kind: symImm, imm: uint64(uint32(int32(int64(a.imm))))})
			return
		}
	}
	d := int32(len(c.vstack))
	oa, imm := operand(a)
	c.micro = append(c.micro, MicroOp{Code: code, D: d, A: oa, Imm: imm})
	c.push(sym{kind: symSlot, idx: d})
}

// storeLocal lowers StoreLocal i, sinking the producing micro-op's
// destination straight into the local when the popped value was
// produced by the immediately preceding micro-op and nothing else
// references its slot.
func (c *microCompiler) storeLocal(i int32) {
	v := c.pop()
	mark := len(c.micro)
	c.matLocal(i)
	switch v.kind {
	case symImm:
		c.micro = append(c.micro, MicroOp{Code: MMovImm, D: -(i + 1), Imm: v.imm})
	case symLocal:
		if v.idx != i {
			c.micro = append(c.micro, MicroOp{Code: MMov, D: -(i + 1), A: -(v.idx + 1)})
		}
	default:
		sink := len(c.micro) == mark && mark > c.noSink && c.micro[mark-1].D == v.idx
		if sink {
			for p := range c.vstack {
				if s := c.vstack[p]; s.kind == symSlot && s.idx == v.idx {
					sink = false
					break
				}
			}
		}
		if sink {
			c.micro[mark-1].D = -(i + 1)
		} else {
			c.micro = append(c.micro, MicroOp{Code: MMov, D: -(i + 1), A: v.idx})
		}
	}
	c.setLocalFlag(i, v.flag)
}

// closeSeg ends the current pure segment at a memory boundary or the
// block's end: the first segment's accumulator becomes the block's
// up-front charge, later ones append to Segs (charged right after the
// boundary that precedes them).
func (c *microCompiler) closeSeg() {
	if len(c.bounds) == 0 {
		c.firstLen, c.firstCyc, c.firstCls = c.segLen, c.segCyc, c.segCls
	} else {
		c.segs = append(c.segs, Seg{Cycles: c.segCyc, ClassCycles: c.segCls, Len: c.segLen})
	}
	c.segLen, c.segCyc, c.segCls = 0, 0, [isa.NumClasses]uint64{}
}

// memBoundary lowers one absorbable memory instruction at block-
// relative index rel. It closes the current pure segment, records the
// shadow materialisations and flag snapshots an abort or trap needs to
// rebuild exact stepped state, and emits the memory micro-op with
// symbolic operands (the happy path never round-trips them through
// their stack slots).
func (c *microCompiler) memBoundary(rel int32, in isa.Instr) {
	npops, npush := stackEffect(in.Op)
	var mcode uint8
	switch in.Op {
	case isa.OpALoad:
		mcode = MALoad
	case isa.OpAStore:
		mcode = MAStore
	case isa.OpArrayLen:
		mcode = MArrayLen
	case isa.OpGetField:
		mcode = MGetField
	case isa.OpPutField:
		mcode = MPutField
	case isa.OpGetStatic:
		mcode = MGetStatic
	case isa.OpPutStatic:
		mcode = MPutStatic
	}
	opStart := len(c.vstack) - int(npops)
	// One shared Imm field per micro-op: materialise all but one
	// immediate operand.
	imms := 0
	for i := opStart; i < len(c.vstack); i++ {
		if c.vstack[i].kind == symImm {
			imms++
		}
	}
	for i := opStart; i < len(c.vstack) && imms > 1; i++ {
		if c.vstack[i].kind == symImm {
			c.vstack[i] = c.materialise(c.vstack[i], int32(i))
			imms--
		}
	}
	// Shadow materialisations: every live entry not already at its
	// stack position, split below-operands / operands so a resume at
	// the next instruction does not clobber the result's slot.
	matLo, matOpLo := int32(len(c.mats)), int32(len(c.mats))
	for i, v := range c.vstack {
		if i == opStart {
			matOpLo = int32(len(c.mats))
		}
		if v.kind != symSlot || v.idx != int32(i) {
			c.mats = append(c.mats, matOp(v, int32(i)))
		}
	}
	if opStart == len(c.vstack) {
		matOpLo = int32(len(c.mats))
	}
	matHi := int32(len(c.mats))
	// Flag snapshots: the stack below the instruction's SP and the
	// locals written so far. Sources resolve against entry state at
	// apply time, which still holds at any boundary — local flag writes
	// are deferred to the block's final epilogue.
	lfLo, sfLo := int32(len(c.blf)), int32(len(c.bsf))
	c.blf, c.bsf = c.appendFlags(c.blf, c.bsf)

	var ops [3]sym
	for i := npops - 1; i >= 0; i-- {
		ops[i] = c.pop()
	}
	m := MicroOp{Code: mcode, D: int32(opStart)}
	enc := func(v sym) int32 {
		o, im := operand(v)
		if o == MicroImm {
			m.Imm = im
		}
		return o
	}
	switch in.Op {
	case isa.OpALoad, isa.OpAStore:
		m.A, m.B = enc(ops[0]), enc(ops[1])
		if in.Op == isa.OpAStore {
			m.D = enc(ops[2])
		}
	case isa.OpArrayLen, isa.OpGetField:
		m.A = enc(ops[0])
	case isa.OpPutField:
		m.A, m.B = enc(ops[0]), enc(ops[1])
	case isa.OpPutStatic:
		m.A = enc(ops[0])
	}
	c.micro = append(c.micro, m)
	c.noSink = len(c.micro)
	if npush == 1 {
		flag := int32(0)
		switch in.Op {
		case isa.OpALoad:
			if isa.ElemKind(in.A) == isa.ElemRef {
				flag = 1
			}
		case isa.OpGetField, isa.OpGetStatic:
			if in.B&isa.FlagRef != 0 {
				flag = 1
			}
		}
		c.push(sym{kind: symSlot, idx: int32(opStart), flag: flag})
	}

	c.closeSeg()
	c.bounds = append(c.bounds, MemBound{
		RelIdx: rel, Cost: uint32(in.Cost), Class: in.Op.Class(),
		Kind: in.A, Flags: in.B,
		SPAtOp: int32(opStart) + npops, SPTrap: int32(opStart), SPAfter: int32(opStart) + npush,
		MatLo: matLo, MatOpLo: matOpLo, MatHi: matHi,
		LfLo: lfLo, LfHi: int32(len(c.blf)), SfLo: sfLo, SfHi: int32(len(c.bsf)),
	})
}

// compileMicro lowers the instructions of the block code into a
// Superblock's replay program and segment costs; the caller sets the
// block's length and exit. entry is how many operands pushed before the
// block it pops. term is the block's control terminal when it has one
// (goto or conditional branch): it contributes cost, an instruction and
// its operand pops to the final segment but emits no micro-op — the
// executor applies its effect from Target. Lowering cannot fail: the
// run scan admits only ops modelled here.
func compileMicro(code []isa.Instr, term *isa.Instr, entry int32) *Superblock {
	c := microCompiler{maxDepth: entry, low: int(entry)}
	for i := int32(0); i < entry; i++ {
		c.vstack = append(c.vstack, sym{kind: symSlot, idx: i, flag: -(i + 1)})
	}

	for idx, in := range code {
		if memOp(in.Op) {
			c.memBoundary(int32(idx), in)
			continue
		}
		c.segLen++
		c.segCyc += uint64(in.Cost)
		c.segCls[in.Op.Class()] += uint64(in.Cost)
		switch in.Op {
		case isa.OpNop, isa.OpGoto:

		case isa.OpPushConst:
			flag := int32(0)
			if in.C == 1 {
				flag = 1
			}
			c.push(sym{kind: symImm,
				imm:  uint64(uint32(in.A)) | uint64(uint32(in.B))<<32,
				flag: flag})
		case isa.OpLoadLocal:
			c.push(sym{kind: symLocal, idx: in.A, flag: c.flagOfLocal(in.A)})
		case isa.OpStoreLocal:
			c.storeLocal(in.A)
		case isa.OpIncLocal:
			c.matLocal(in.A)
			c.micro = append(c.micro, MicroOp{
				Code: MAddI, D: -(in.A + 1), A: -(in.A + 1),
				B: MicroImm, Imm: uint64(uint32(in.B)),
			})
			// IncLocal leaves the local's reference flag untouched
			// (mirroring step), so localFlag is deliberately not updated.
		case isa.OpPop:
			c.pop()
		case isa.OpPop2:
			c.pop()
			c.pop()
		case isa.OpDup:
			c.push(c.vstack[len(c.vstack)-1])
		case isa.OpDup2:
			b := c.vstack[len(c.vstack)-1]
			a := c.vstack[len(c.vstack)-2]
			c.push(a)
			c.push(b)
		default:
			if unaryOp(in.Op) {
				c.unary(in)
			} else if _, isBin := microForOp[in.Op]; isBin {
				c.binary(in)
			} else {
				panic("jit: impure opcode " + in.Op.String() + " inside a superblock")
			}
		}
	}

	// The control terminal belongs to the final segment: its static
	// cost and instruction count charge with the block's tail even
	// though its effect is applied from Target.
	var termPops int32
	if term != nil {
		c.segLen++
		c.segCyc += uint64(term.Cost)
		c.segCls[term.Op.Class()] += uint64(term.Cost)
		termPops, _ = stackEffect(term.Op)
	}
	c.closeSeg()

	// Epilogue: materialise surviving symbolic stack values into their
	// positions (processing upward — a non-identity copy only ever reads
	// a slot whose position holds it identically, per the compiler
	// invariant) and collect the deferred reference-flag writes.
	for p := c.low; p < len(c.vstack); p++ {
		c.vstack[p] = c.materialise(c.vstack[p], int32(p))
	}
	// A conditional terminal reads its operands from their slots, but
	// they lie above the final SP, where no reference flag is observed.
	c.vstack = c.vstack[:len(c.vstack)-int(termPops)]
	b := &Superblock{
		Cycles: c.firstCyc, ClassCycles: c.firstCls, FirstLen: c.firstLen,
		Entry: entry, StackDelta: int32(len(c.vstack)),
		Micro: c.micro, MaxDepth: c.maxDepth,
		Bounds: c.bounds, Segs: c.segs, Mats: c.mats,
		BLFlags: c.blf, BSFlags: c.bsf,
	}
	b.LFlags, b.SFlags = c.appendFlags(nil, nil)
	// Local-flag lists only grow along the block, so the final one is
	// the longest a boundary or the epilogue resolves.
	b.FlagBuf = entry + int32(len(b.LFlags))
	return b
}
