package vm

import (
	"testing"

	"herajvm/internal/classfile"
)

// entrySlotProg builds guest methods whose superblocks are entered
// mid-expression, so the blocks pop operands pushed before their entry
// (their Entry slots) or start on a memory instruction. Each method
// returns a checksum; want holds the value stepping must produce.
func entrySlotProg() (p *classfile.Program, methods []string, want map[string]int32) {
	p = newProg()
	want = map[string]int32{}

	pt := p.NewClass("Pt", nil)
	v := pt.NewField("v", classfile.Int)
	next := pt.NewField("next", classfile.Ref)
	ctor := pt.NewMethod("init", 0, classfile.Void, classfile.Int)
	{
		a := ctor.Asm()
		a.LoadRef(0)
		a.LoadI(1)
		a.PutField(v)
		a.RetVoid()
		a.MustBuild()
	}

	c := p.NewClass("Entry", nil)
	f := c.NewMethod("f", classfile.FlagStatic, classfile.Int, classfile.Int)
	{
		a := f.Asm()
		a.LoadI(0)
		a.ConstI(7)
		a.MulI()
		a.ConstI(1)
		a.AddI()
		a.Ret()
		a.MustBuild()
	}
	// mk returns new int[4] with a[0] = x.
	mk := c.NewMethod("mk", classfile.FlagStatic, classfile.Ref, classfile.Int)
	{
		a := mk.Asm()
		a.ConstI(4)
		a.NewArray(classfile.ElemInt)
		a.StoreRef(1)
		a.LoadRef(1)
		a.ConstI(0)
		a.LoadI(0)
		a.AStore(classfile.ElemInt)
		a.LoadRef(1)
		a.Ret()
		a.MustBuild()
	}
	// churn allocates garbage arrays of mk's size, so a collection
	// runs and reuses any array the frame maps failed to root.
	churn := func(a *classfile.Asm, counter int) {
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(counter)
		a.Bind(loop)
		a.LoadI(counter)
		a.ConstI(64)
		a.IfICmpGE(done)
		a.ConstI(4)
		a.NewArray(classfile.ElemInt)
		a.ConstI(0)
		a.ConstI(-1)
		a.AStore(classfile.ElemInt)
		a.Inc(counter, 1)
		a.Goto(loop)
		a.Bind(done)
	}
	// use collects garbage while its argument is the only reference to
	// p, then returns p.v.
	use := c.NewMethod("use", classfile.FlagStatic, classfile.Int, classfile.Ref)
	{
		a := use.Asm()
		churn(a, 1)
		a.LoadRef(0)
		a.GetField(v)
		a.Ret()
		a.MustBuild()
	}
	method := func(name string, sum int32, build func(a *classfile.Asm)) {
		a := c.NewMethod(name, classfile.FlagStatic, classfile.Int).Asm()
		build(a)
		a.MustBuild()
		methods = append(methods, name)
		want[name] = sum
	}

	// x = f(i) * 3 + a[i & 7], summed: after f returns, the block
	// pops f's result and the running sum, both pushed before it.
	var sum int32
	for i := int32(0); i < 24; i++ {
		sum += (i*7+1)*3 + (i&7)*5 + 2
	}
	method("call", sum, func(a *classfile.Asm) {
		// locals: 0 a, 1 i, 2 acc
		fill, filled := a.NewLabel(), a.NewLabel()
		a.ConstI(8)
		a.NewArray(classfile.ElemInt)
		a.StoreRef(0)
		a.ConstI(0)
		a.StoreI(1)
		a.Bind(fill)
		a.LoadI(1)
		a.ConstI(8)
		a.IfICmpGE(filled)
		a.LoadRef(0)
		a.LoadI(1)
		a.LoadI(1)
		a.ConstI(5)
		a.MulI()
		a.ConstI(2)
		a.AddI()
		a.AStore(classfile.ElemInt)
		a.Inc(1, 1)
		a.Goto(fill)
		a.Bind(filled)
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(2)
		a.ConstI(0)
		a.StoreI(1)
		a.Bind(loop)
		a.LoadI(1)
		a.ConstI(24)
		a.IfICmpGE(done)
		a.LoadI(2)
		a.LoadI(1)
		a.InvokeStatic(f)
		a.ConstI(3)
		a.MulI()
		a.LoadRef(0)
		a.LoadI(1)
		a.ConstI(7)
		a.AndI()
		a.ALoad(classfile.ElemInt)
		a.AddI()
		a.AddI()
		a.StoreI(2)
		a.Inc(1, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(2)
		a.Ret()
	})

	// new; dup; invokespecial, chaining the objects through next and
	// summing them after a collection: the blocks after `new` and after
	// the constructor pop the new reference, pushed before them, and
	// pass its reference flag on to the locals that keep it alive.
	sum = 0
	for i := int32(0); i < 12; i++ {
		sum += i
	}
	method("ctor", sum, func(a *classfile.Asm) {
		// locals: 0 i, 1 acc, 2 p, 3 head, 4 churn counter
		loop, done := a.NewLabel(), a.NewLabel()
		a.Null()
		a.StoreRef(3)
		a.ConstI(0)
		a.StoreI(0)
		a.Bind(loop)
		a.LoadI(0)
		a.ConstI(12)
		a.IfICmpGE(done)
		a.New(pt)
		a.Dup()
		a.LoadI(0)
		a.InvokeSpecial(ctor)
		a.StoreRef(2)
		a.LoadRef(2)
		a.LoadRef(3)
		a.PutField(next)
		a.LoadRef(2)
		a.StoreRef(3)
		churn(a, 4)
		a.Inc(0, 1)
		a.Goto(loop)
		a.Bind(done)
		walk, walked := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(1)
		a.Bind(walk)
		a.LoadRef(3)
		a.IfNull(walked)
		a.LoadI(1)
		a.LoadRef(3)
		a.GetField(v)
		a.AddI()
		a.StoreI(1)
		a.LoadRef(3)
		a.GetField(next)
		a.StoreRef(3)
		a.Goto(walk)
		a.Bind(walked)
		a.LoadI(1)
		a.Ret()
	})

	// getfield and aload whose operands come from before the block: a
	// call leaves the array (or object) on the stack and the block
	// after it starts on the memory op. `dup; storelocal` keeps a copy
	// of the entry reference in a local while the load overwrites its
	// stack slot, and a collection then checks the local kept its flag.
	sum = 0
	for i := int32(0); i < 10; i++ {
		sum += (i + 40) + (i*7 + 1) + (i + 40)
	}
	method("mem", sum, func(a *classfile.Asm) {
		// locals: 0 i, 1 acc, 2 kept array, 3 churn counter, 4 obj
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(1)
		a.ConstI(0)
		a.StoreI(0)
		a.Bind(loop)
		a.LoadI(0)
		a.ConstI(10)
		a.IfICmpGE(done)
		// acc += mk(i+40)[0], keeping the array in local 2.
		a.LoadI(1)
		a.LoadI(0)
		a.ConstI(40)
		a.AddI()
		a.InvokeStatic(mk)
		a.Dup()
		a.StoreRef(2)
		a.ConstI(0)
		a.ALoad(classfile.ElemInt)
		a.AddI()
		a.StoreI(1)
		// acc += new Pt(f(i)).v: getfield right after a call.
		a.New(pt)
		a.StoreRef(4)
		a.LoadRef(4)
		a.LoadI(0)
		a.InvokeStatic(f)
		a.InvokeSpecial(ctor)
		a.LoadI(1)
		a.LoadRef(4)
		a.GetField(v)
		a.AddI()
		a.StoreI(1)
		churn(a, 3)
		// acc += kept[0] after the collection.
		a.LoadI(1)
		a.LoadRef(2)
		a.ConstI(0)
		a.ALoad(classfile.ElemInt)
		a.AddI()
		a.StoreI(1)
		a.Inc(0, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(1)
		a.Ret()
	})

	// A reference passed as an argument from a block's last stack slot
	// after its local was cleared: the block's stack-flag write is the
	// only thing that keeps the object alive through use's collection.
	sum = 0
	for i := int32(0); i < 8; i++ {
		sum += i
	}
	method("arg", sum, func(a *classfile.Asm) {
		// locals: 0 i, 1 acc, 2 obj
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(1)
		a.ConstI(0)
		a.StoreI(0)
		a.Bind(loop)
		a.LoadI(0)
		a.ConstI(8)
		a.IfICmpGE(done)
		// The object sits above acc, so slot 0's flag is an int's when
		// the block after the constructor moves the object down to it.
		a.LoadI(1)
		a.New(pt)
		a.Dup()
		a.LoadI(0)
		a.InvokeSpecial(ctor)
		a.StoreRef(2)
		a.StoreI(1)
		a.LoadRef(2)
		a.Null()
		a.StoreRef(2)
		a.InvokeStatic(use)
		a.LoadI(1)
		a.AddI()
		a.StoreI(1)
		a.Inc(0, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(1)
		a.Ret()
	})

	// A conditional branch that falls through onto a memory op: the
	// array and index are pushed before the branch, so the
	// fall-through block starts on the aload with both as entry slots.
	sum = 0
	for i := int32(0); i < 16; i++ {
		if i&1 != 0 {
			sum += i * 3
		}
	}
	method("branch", sum, func(a *classfile.Asm) {
		// locals: 0 a, 1 i, 2 acc
		fill, filled := a.NewLabel(), a.NewLabel()
		a.ConstI(16)
		a.NewArray(classfile.ElemInt)
		a.StoreRef(0)
		a.ConstI(0)
		a.StoreI(1)
		a.Bind(fill)
		a.LoadI(1)
		a.ConstI(16)
		a.IfICmpGE(filled)
		a.LoadRef(0)
		a.LoadI(1)
		a.LoadI(1)
		a.ConstI(3)
		a.MulI()
		a.AStore(classfile.ElemInt)
		a.Inc(1, 1)
		a.Goto(fill)
		a.Bind(filled)
		loop, done, skip, next := a.NewLabel(), a.NewLabel(), a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(2)
		a.ConstI(0)
		a.StoreI(1)
		a.Bind(loop)
		a.LoadI(1)
		a.ConstI(16)
		a.IfICmpGE(done)
		a.LoadRef(0)
		a.LoadI(1)
		a.LoadI(1)
		a.ConstI(1)
		a.AndI()
		a.IfEQ(skip)
		a.ALoad(classfile.ElemInt)
		a.LoadI(2)
		a.AddI()
		a.StoreI(2)
		a.Goto(next)
		a.Bind(skip)
		a.Pop2()
		a.Bind(next)
		a.Inc(1, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(2)
		a.Ret()
	})
	return p, methods, want
}

// TestDifferentialEntrySlots runs the entry-slot methods at every
// quantum from 1 to 64 cycles, so quantum expiry lands on every block
// boundary, with superblocks on and off. Both runs must agree with each
// other and with the expected checksum on the result, the clocks, the
// per-class cycles, the instruction counts and the objects that survive
// the forced collections, and the fast path must have run blocks with
// entry slots and blocks that start on a memory op.
func TestDifferentialEntrySlots(t *testing.T) {
	_, methods, want := entrySlotProg()
	boot := func(quantum uint64, disable bool) *VM {
		p, _, _ := entrySlotProg()
		cfg := testConfig()
		cfg.HeapBytes = 8 << 10
		cfg.Quantum = quantum
		cfg.DisableSuperblocks = disable
		vmach, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		return vmach
	}
	ff := map[string]uint64{}
	for q := uint64(1); q <= 64; q++ {
		fast, slow := boot(q, false), boot(q, true)
		for _, name := range methods {
			before, gcs := ffInstrs(fast), fast.GCCount
			var got [2]int32
			for i, vmach := range []*VM{fast, slow} {
				th, err := vmach.RunMain("Entry", name)
				if err != nil {
					t.Fatalf("quantum %d, %s: %v", q, name, err)
				}
				got[i] = int32(uint32(th.Result))
			}
			if got[0] != want[name] || got[1] != want[name] {
				t.Fatalf("quantum %d, %s: fast=%d stepped=%d want %d", q, name, got[0], got[1], want[name])
			}
			if f, s := fast.Machine.MaxClock(), slow.Machine.MaxClock(); f != s {
				t.Fatalf("quantum %d, %s: clock fast=%d stepped=%d", q, name, f, s)
			}
			// A reference flag the replay got wrong shows as a different
			// set of objects surviving the collections.
			if f, s := fast.Heap.LiveObjects(), slow.Heap.LiveObjects(); f != s {
				t.Fatalf("quantum %d, %s: live objects fast=%d stepped=%d", q, name, f, s)
			}
			fcores, scores := fast.Machine.Cores(), slow.Machine.Cores()
			for i := range fcores {
				fs, ss := &fcores[i].Stats, &scores[i].Stats
				if fs.Cycles != ss.Cycles || fs.Instrs != ss.Instrs || fs.Idle != ss.Idle {
					t.Fatalf("quantum %d, %s, core %d: fast cycles/instrs/idle %v/%d/%d, stepped %v/%d/%d",
						q, name, i, fs.Cycles, fs.Instrs, fs.Idle, ss.Cycles, ss.Instrs, ss.Idle)
				}
			}
			ff[name] += ffInstrs(fast) - before
			if name != "call" && name != "branch" && fast.GCCount == gcs {
				t.Fatalf("quantum %d, %s: no collection ran, so no reference flag was checked", q, name)
			}
		}
		if q == 64 {
			checkEntryBlocks(t, fast, methods)
		}
	}
	for _, name := range methods {
		if ff[name] == 0 {
			t.Errorf("%s never took the fast path", name)
		}
	}
}

func ffInstrs(vmach *VM) uint64 {
	var n uint64
	for _, c := range vmach.Machine.Cores() {
		n += c.Stats.FastForwardedInstrs
	}
	return n
}

// checkEntryBlocks requires that execution built, in each named
// method, a block with entry slots, and somewhere a block that starts
// on a memory op.
func checkEntryBlocks(t *testing.T, vmach *VM, methods []string) {
	t.Helper()
	cls := vmach.Prog.Lookup("Entry")
	memStart := false
	for _, name := range methods {
		m := cls.MethodByName(name)
		entry := false
		for _, comp := range vmach.compilers {
			cm := comp.Lookup(m)
			if cm == nil {
				continue
			}
			for _, b := range cm.SB {
				if b != nil && b.Len > 0 {
					entry = entry || b.Entry > 0
					memStart = memStart || (b.FirstLen == 0 && len(b.Bounds) > 0)
				}
			}
		}
		if !entry {
			t.Errorf("%s: no block with entry slots was built", name)
		}
	}
	if !memStart {
		t.Error("no block starting on a memory op was built")
	}
}
