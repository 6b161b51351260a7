package jit

import (
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

// sbMethod compiles a method on the SPE backend and returns its code
// and superblocks.
func sbMethod(t *testing.T, build func(a *classfile.Asm)) *CompiledMethod {
	t.Helper()
	_, spe, _ := newCompilers(t)
	p := classfile.NewProgram()
	c := p.NewClass("SB", nil)
	m := c.NewMethod("run", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	build(a)
	a.MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	cm, err := spe.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// codeMethod wraps hand-built code in the block table Compile would
// give it, so Block works without a classfile method.
func codeMethod(code []isa.Instr) *CompiledMethod {
	return &CompiledMethod{Code: code, SB: make([]*Superblock, len(code)), runEnd: scanRuns(code)}
}

// TestSuperblockSuffixRuns checks that a pure straight-line prefix gets
// a suffix block at every index, with cost vectors that sum the
// instructions' static costs and a stack delta matching the net effect.
func TestSuperblockSuffixRuns(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		a.ConstI(3) // pure
		a.ConstI(4) // pure
		a.AddI()    // pure
		a.Ret()     // ends the run
	})
	if len(cm.SB) != len(cm.Code) {
		t.Fatalf("SB length %d != code length %d", len(cm.SB), len(cm.Code))
	}
	// Find the run end: the OpReturn.
	end := -1
	for i, in := range cm.Code {
		if in.Op == isa.OpReturn {
			end = i
			break
		}
	}
	if end < 1 {
		t.Fatalf("no return in %v", cm.Code)
	}
	for p := 0; p < end; p++ {
		b := cm.Block(p)
		if int(b.Len) != end-p {
			t.Fatalf("pc %d: Len=%d want %d", p, b.Len, end-p)
		}
		if int(b.Target) != end {
			t.Fatalf("pc %d: Target=%d want %d", p, b.Target, end)
		}
		var cycles uint64
		var classes [isa.NumClasses]uint64
		var depth, entry int32
		for q := p; q < end; q++ {
			cycles += uint64(cm.Code[q].Cost)
			classes[cm.Code[q].Op.Class()] += uint64(cm.Code[q].Cost)
			pops, pushes := stackEffect(cm.Code[q].Op)
			entry = max(entry, pops-depth)
			depth += pushes - pops
		}
		if b.Cycles != cycles || b.ClassCycles != classes {
			t.Fatalf("pc %d: cost vector mismatch: %+v", p, b)
		}
		// A suffix entered mid-expression consumes operands pushed before
		// it; StackDelta is the final depth above the base below them.
		if b.Entry != entry || b.StackDelta != entry+depth {
			t.Fatalf("pc %d: Entry=%d StackDelta=%d want %d/%d", p, b.Entry, b.StackDelta, entry, entry+depth)
		}
	}
	if cm.Block(end).Len != 0 {
		t.Errorf("return must not start a block")
	}
}

// TestSuperblockBoundaries checks that calls, returns and allocations
// end blocks and never start or join one, that a memory op may start a
// block (its operands are entry slots), and that a conditional branch
// appears only as a block's terminal instruction.
func TestSuperblockBoundaries(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		done := a.NewLabel()
		a.ConstI(1)
		a.ConstI(2)
		a.IfICmpGE(done) // joins as a conditional terminal only
		a.ConstI(5)
		a.NewArray(classfile.ElemInt) // impure: allocation
		a.ArrayLen()                  // impure: memory
		a.Ret()
		a.Bind(done)
		a.ConstI(0)
		a.Ret()
	})
	condBranch := func(op isa.Op) bool {
		switch op {
		case isa.OpIf, isa.OpIfCmpI, isa.OpIfCmpRef, isa.OpIfNull:
			return true
		}
		return false
	}
	for i, in := range cm.Code {
		switch in.Op {
		case isa.OpNewArray, isa.OpReturn:
			if cm.Block(i).Len != 0 {
				t.Errorf("%v at %d starts a block (Len=%d)", in.Op, i, cm.Block(i).Len)
			}
		case isa.OpArrayLen:
			if b := cm.Block(i); b.Len != 1 || b.FirstLen != 0 || b.Entry != 1 || b.StackDelta != 1 {
				t.Errorf("arraylen at %d must start a Len-1 block with an empty first segment "+
					"over one entry slot: %+v", i, b)
			}
		}
		if b := cm.Block(i); b.Len > 0 {
			for q := i; q < i+int(b.Len); q++ {
				op := cm.Code[q].Op
				last := q == i+int(b.Len)-1
				if condBranch(op) && (!last || b.End == EndFall) {
					t.Errorf("block at %d holds branch %v at %d as a non-terminal", i, op, q)
				} else if !pureOp(op) && op != isa.OpGoto && !condBranch(op) &&
					!guardedDivOp(op) && !memOp(op) {
					t.Errorf("block at %d covers impure %v at %d", i, op, q)
				}
			}
		}
	}
}

// TestSuperblockMemoryAbsorption checks a memory op is absorbed
// mid-block and that the block's segmented cost shape is consistent:
// the first-segment vector covers exactly the instructions before the
// first boundary, each MemBound carries the memory op's own static
// cost, and FirstLen + segment lengths + boundary count add back up to
// Len. A block may also start on the memory op itself, with an empty
// first segment and the op's operands as entry slots.
func TestSuperblockMemoryAbsorption(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.OpLoadLocal, A: 0, Cost: 1},              // arr
		{Op: isa.OpPushConst, A: 3, Cost: 1},              // idx
		{Op: isa.OpALoad, A: int32(isa.ElemInt), Cost: 6}, // absorbed boundary
		{Op: isa.OpPushConst, A: 1, Cost: 1},              //
		{Op: isa.OpAddI, Cost: 1},                         // second pure segment
		{Op: isa.OpReturn, A: 1, Cost: 2},                 // ends the run
	}
	cm := codeMethod(code)
	if b := cm.Block(2); b.Len != 3 || b.Entry != 2 || b.StackDelta != 1 ||
		b.FirstLen != 0 || b.Cycles != 0 || len(b.Bounds) != 1 ||
		b.Bounds[0].RelIdx != 0 || b.Bounds[0].SPAtOp != 2 ||
		b.Bounds[0].SPTrap != 0 || b.Bounds[0].SPAfter != 1 {
		t.Errorf("block on the load: want Len 3 over 2 entry slots, empty first segment, "+
			"boundary at 0 with SP 2/0/1 and final depth 1: %+v", b)
	}
	b := cm.Block(0)
	if int(b.Len) != 5 {
		t.Fatalf("block at 0 must absorb the load and run to the return: %+v", b)
	}
	if len(b.Bounds) != 1 || len(b.Segs) != 1 {
		t.Fatalf("want 1 boundary and 1 trailing segment, got %d/%d", len(b.Bounds), len(b.Segs))
	}
	if b.FirstLen != 2 || b.Cycles != 2 {
		t.Errorf("first segment must cover the two loads: FirstLen=%d Cycles=%d", b.FirstLen, b.Cycles)
	}
	bd := b.Bounds[0]
	if bd.RelIdx != 2 || bd.Cost != 6 {
		t.Errorf("boundary must sit at the load with its static cost: %+v", bd)
	}
	if got := b.FirstLen + b.Segs[0].Len + int32(len(b.Bounds)); got != b.Len {
		t.Errorf("segmented lengths sum to %d, want Len %d", got, b.Len)
	}
	if b.Segs[0].Cycles != 2 {
		t.Errorf("trailing segment must cost the const+add: %+v", b.Segs[0])
	}
	// SP bookkeeping around the boundary: two operands on the stack at
	// the op, popped to the trap depth, one result after.
	if bd.SPAtOp != 2 || bd.SPTrap != 0 || bd.SPAfter != 1 {
		t.Errorf("boundary SP shape: %+v", bd)
	}
}

// TestSuperblockMidExpressionEntry checks the shape of a block entered
// mid-expression, as after a call returns into `x = f() * 3 + a[i]`:
// the multiply pops the call's result, pushed before the block, and the
// array load pops the array ref loaded before it. Both are entry slots,
// so the block lowers with every stack depth measured from its base,
// and it ends where the statement does, having drained them: the run's
// tail is the block that starts there.
func TestSuperblockMidExpressionEntry(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.OpLoadLocal, A: 0, Cost: 1},              // a
		{Op: isa.OpLoadLocal, A: 1, Cost: 1},              // f() result stands in
		{Op: isa.OpPushConst, A: 3, Cost: 1},              // block entry
		{Op: isa.OpMulI, Cost: 2},                         // pops the pre-entry value
		{Op: isa.OpALoad, A: int32(isa.ElemInt), Cost: 6}, // pops the pre-entry ref
		{Op: isa.OpStoreLocal, A: 2, Cost: 1},             // statement ends
		{Op: isa.OpLoadLocal, A: 2, Cost: 1},              // the next one
		{Op: isa.OpStoreLocal, A: 3, Cost: 1},             //
		{Op: isa.OpReturn, Cost: 2},                       // ends the run
	}
	cm := codeMethod(code)
	b := cm.Block(2)
	if b.Len != 4 || b.Target != 6 || b.End != EndFall || b.Entry != 2 || b.StackDelta != 0 ||
		b.FirstLen != 2 || b.Cycles != 3 {
		t.Fatalf("want Len 4 falling through to 6, Entry 2, StackDelta 0, "+
			"first segment 2 instrs/3 cycles: %+v", b)
	}
	// A block entered with nothing pending runs to the run's end.
	if b0 := cm.Block(0); b0.Len != 8 || b0.Entry != 0 {
		t.Errorf("block at 0: want Len 8 over no entry slots: %+v", b0)
	}
	if len(b.Bounds) != 1 {
		t.Fatalf("want one boundary: %+v", b.Bounds)
	}
	// At the load: entry ref in slot 0, product in slot 1; the trap
	// depth pops both and the result lands in slot 0.
	if bd := b.Bounds[0]; bd.RelIdx != 2 || bd.SPAtOp != 2 || bd.SPTrap != 0 || bd.SPAfter != 1 {
		t.Errorf("boundary shape: %+v", bd)
	}
	// The product reads entry slot 1 and lands at its stepped position.
	if m := b.Micro[0]; m.Code != MMulI || m.D != 1 || m.A != 1 || m.B != MicroImm || m.Imm != 3 {
		t.Errorf("first micro-op: %+v", m)
	}
}

// TestSuperblockConditionalTermination checks a conditional branch
// joins its preceding pure run as the terminal instruction: Len and
// StackDelta count it, Target holds the taken destination, Cond the
// condition code, and the branch alone also forms a Len-1 block whose
// comparison operands are entry slots.
func TestSuperblockConditionalTermination(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		done := a.NewLabel()
		a.ConstI(0)
		a.StoreI(0)
		a.LoadI(0)
		a.ConstI(10)
		a.IfICmpGE(done)
		a.Inc(0, 1)
		a.Bind(done)
		a.LoadI(0)
		a.Ret()
	})
	brIdx := -1
	for i, in := range cm.Code {
		if in.Op == isa.OpIfCmpI {
			brIdx = i
		}
	}
	if brIdx < 0 {
		t.Fatal("no conditional branch emitted")
	}
	b := cm.Block(brIdx - 2) // the LoadI beginning the run
	if int(b.Len) != 3 || b.End != EndIfCmpI {
		t.Fatalf("block %+v: want Len 3 ending in EndIfCmpI", b)
	}
	if b.Target != cm.Code[brIdx].B || b.Cond != cm.Code[brIdx].A {
		t.Fatalf("block %+v: Target/Cond must mirror the branch operands %+v", b, cm.Code[brIdx])
	}
	// Net stack effect: two pushes, two pops by the compare.
	if b.StackDelta != 0 {
		t.Fatalf("StackDelta=%d want 0 (branch pops its operands)", b.StackDelta)
	}
	if lone := cm.Block(brIdx); lone.Len != 1 || lone.End != EndIfCmpI || lone.Entry != 2 || lone.StackDelta != 0 {
		t.Fatalf("branch-only block %+v: want Len 1, EndIfCmpI, Entry 2, StackDelta 0", lone)
	}
}

// TestSuperblockGotoTermination checks a trailing unconditional goto
// joins its block and carries the resolved target, so loop bodies
// fast-forward through their backedge.
func TestSuperblockGotoTermination(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(0)
		a.Bind(loop)
		a.LoadI(0)
		a.ConstI(10)
		a.IfICmpGE(done)
		a.Inc(0, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(0)
		a.Ret()
	})
	var gotoIdx = -1
	for i, in := range cm.Code {
		if in.Op == isa.OpGoto {
			gotoIdx = i
		}
	}
	if gotoIdx < 0 {
		t.Fatal("no goto emitted")
	}
	// The block starting at the loop-body instruction right after the
	// conditional branch must run through the goto and land on its
	// target.
	body := cm.Block(gotoIdx - 1) // the inc preceding the goto
	if body.Len != 2 {
		t.Fatalf("body block Len=%d want 2 (inc+goto)", body.Len)
	}
	if body.Target != cm.Code[gotoIdx].A {
		t.Fatalf("body Target=%d want goto target %d", body.Target, cm.Code[gotoIdx].A)
	}
	// The goto alone is also a (Len 1) block.
	if g := cm.Block(gotoIdx); g.Len != 1 || g.Target != cm.Code[gotoIdx].A {
		t.Fatalf("goto block %+v", g)
	}
}

// TestSuperblockGuardedDivision checks that a divide by a preceding
// nonzero constant joins a block but never begins one, and a potentially
// trapping divide (computed divisor) ends the run.
func TestSuperblockGuardedDivision(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		a.ConstI(2)
		a.StoreI(0)
		a.ConstI(100)
		a.ConstI(7)
		a.DivI() // guarded: divisor is the preceding constant 7
		a.ConstI(3)
		a.LoadI(0)
		a.DivI() // unguarded: divisor from a local
		a.AddI()
		a.Ret()
	})
	var divs []int
	for i, in := range cm.Code {
		if in.Op == isa.OpDivI {
			divs = append(divs, i)
		}
	}
	if len(divs) != 2 {
		t.Fatalf("want 2 divs, got %v", divs)
	}
	guarded, unguarded := divs[0], divs[1]
	if cm.Block(guarded).Len != 0 {
		t.Errorf("guarded div must not start a block")
	}
	// The block from the start must cover the guarded div but stop
	// before the unguarded one.
	b := cm.Block(0)
	if b.Len == 0 || 0+int(b.Len) <= guarded {
		t.Errorf("block at 0 (Len=%d) should cover the guarded div at %d", b.Len, guarded)
	}
	if 0+int(b.Len) > unguarded {
		t.Errorf("block at 0 (Len=%d) must stop before the unguarded div at %d", b.Len, unguarded)
	}
	if cm.Block(unguarded).Len != 0 {
		t.Errorf("unguarded div must not start a block")
	}
}

// TestSuperblockZeroDivisorNotGuarded checks a constant zero divisor is
// not admitted (it must trap per-instruction).
func TestSuperblockZeroDivisorNotGuarded(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.OpPushConst, A: 5, Cost: 1},
		{Op: isa.OpPushConst, A: 0, Cost: 1},
		{Op: isa.OpDivI, Cost: 4},
		{Op: isa.OpReturn, A: 1, Cost: 2},
	}
	cm := codeMethod(code)
	if b := cm.Block(0); int(b.Len) != 2 {
		t.Errorf("run must end before the zero-divisor div: %+v", b)
	}
	if cm.Block(2).Len != 0 {
		t.Errorf("zero-divisor div must not be in any block start")
	}
}

// TestBlockMemoised checks a second Block(p) returns the block the
// first call built, and that indices nobody asked for stay unbuilt.
func TestBlockMemoised(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		a.ConstI(3)
		a.ConstI(4)
		a.AddI()
		a.Ret()
	})
	for p, b := range cm.SB {
		if b != nil {
			t.Fatalf("Compile built the block at %d", p)
		}
	}
	first := cm.Block(0)
	if again := cm.Block(0); again != first {
		t.Fatalf("second Block(0) built a new block: %p != %p", again, first)
	}
	if cm.SB[1] != nil {
		t.Errorf("Block(0) built the block at 1 too")
	}
}

// straightLine compiles a method of n pure bytecodes (store/load pairs
// on one local) ending in a return, on a fresh SPE compiler per call.
func straightLine(tb testing.TB, n int) func() {
	tb.Helper()
	p := classfile.NewProgram()
	c := p.NewClass("Straight", nil)
	m := c.NewMethod("run", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	a.ConstI(1)
	for i := 0; i < n/2; i++ {
		a.StoreI(0)
		a.LoadI(0)
	}
	a.Ret()
	a.MustBuild()
	if err := p.Resolve(); err != nil {
		tb.Fatal(err)
	}
	main := mem.NewMain(1 << 20)
	return func() {
		region, err := mem.NewLayout(main.Size(), 4096).Carve("spe-code", 1<<19)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := NewCompiler(isa.SPE, main, region).Compile(m); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestCompileAllocsLinear gates Compile's allocations: Compile lowers
// no block, so a straight-line method 8x longer may cost only a few
// more allocations (slice growth), not one block per suffix.
func TestCompileAllocsLinear(t *testing.T) {
	short := testing.AllocsPerRun(5, straightLine(t, 64))
	long := testing.AllocsPerRun(5, straightLine(t, 512))
	if long > short+8 {
		t.Fatalf("Compile allocs/op: %v at 512 instructions vs %v at 64", long, short)
	}
}
