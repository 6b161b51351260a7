package vm

import (
	"strings"
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// hotLoopProg builds a tight arithmetic loop whose body is one long pure
// run — the shape the superblock fast path exists for.
func hotLoopProg() *classfile.Program {
	p := newProg()
	c := p.NewClass("Hot", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	loop, done := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(0) // i
	a.ConstI(1)
	a.StoreI(1) // acc
	a.Bind(loop)
	a.LoadI(0)
	a.ConstI(5000)
	a.IfICmpGE(done)
	a.LoadI(1)
	a.ConstI(31)
	a.MulI()
	a.LoadI(0)
	a.AddI()
	a.ConstI(7)
	a.DivI() // guarded: constant divisor inside the block
	a.LoadI(1)
	a.XorI()
	a.StoreI(1)
	a.Inc(0, 1)
	a.Goto(loop)
	a.Bind(done)
	a.LoadI(1)
	a.Ret()
	a.MustBuild()
	return p
}

// TestFastPathMatchesDisabled runs the same hot loop with superblocks on
// (the default) and off, and requires identical simulated results: return
// value, final clocks, per-class cycle counters and retired instruction
// counts. Only the fast-forward counters may differ — they record which
// path did the work, not how much work was done.
func TestFastPathMatchesDisabled(t *testing.T) {
	run := func(disable bool) *VM {
		cfg := testConfig()
		cfg.DisableSuperblocks = disable
		vmach, err := New(cfg, hotLoopProg())
		if err != nil {
			t.Fatal(err)
		}
		th, err := vmach.RunMain("Hot", "main")
		if err != nil {
			t.Fatal(err)
		}
		if !th.HasResult {
			t.Fatal("no result")
		}
		return vmach
	}
	fast, slow := run(false), run(true)

	if f, s := fast.Machine.MaxClock(), slow.Machine.MaxClock(); f != s {
		t.Errorf("MaxClock: fast=%d slow=%d", f, s)
	}
	var ffBlocks, ffInstrs uint64
	fcores, scores := fast.Machine.Cores(), slow.Machine.Cores()
	for i := range fcores {
		fs, ss := &fcores[i].Stats, &scores[i].Stats
		if fs.Cycles != ss.Cycles {
			t.Errorf("core %d: Cycles fast=%v slow=%v", i, fs.Cycles, ss.Cycles)
		}
		if fs.Instrs != ss.Instrs || fs.Idle != ss.Idle {
			t.Errorf("core %d: instrs/idle fast=%d/%d slow=%d/%d",
				i, fs.Instrs, fs.Idle, ss.Instrs, ss.Idle)
		}
		ffBlocks += fs.FastForwardedBlocks
		ffInstrs += fs.FastForwardedInstrs
		if ss.FastForwardedBlocks != 0 || ss.FastForwardedInstrs != 0 {
			t.Errorf("core %d: disabled run fast-forwarded %d blocks", i, ss.FastForwardedBlocks)
		}
	}
	if ffBlocks == 0 || ffInstrs == 0 {
		t.Errorf("fast run never took the fast path (blocks=%d instrs=%d)", ffBlocks, ffInstrs)
	}
}

// TestFastPathQuantumAllocsZero gates the fast path's host
// allocations: once the hot loop's blocks are built and the replay's
// scratch has grown, executing one more quantum allocates nothing.
func TestFastPathQuantumAllocsZero(t *testing.T) {
	vmach, err := New(testConfig(), hotLoopProg())
	if err != nil {
		t.Fatal(err)
	}
	core := vmach.Machine.Cores()[0]
	cm, _, err := vmach.compileFor(core.Kind, vmach.Prog.Lookup("Hot").MethodByName("main"))
	if err != nil {
		t.Fatal(err)
	}
	th := &Thread{ID: 99, Name: "hot", State: StateRunning, Frames: []*Frame{newFrame(cm)}}
	vmach.execute(core, th, 5000) // warm: builds the loop's blocks
	ff := core.Stats.FastForwardedBlocks
	if allocs := testing.AllocsPerRun(20, func() { vmach.execute(core, th, 1000) }); allocs != 0 {
		t.Errorf("one warm quantum allocates %v times, want 0", allocs)
	}
	if th.State != StateRunning {
		t.Fatalf("the loop finished during the measurement (state %v)", th.State)
	}
	if core.Stats.FastForwardedBlocks == ff {
		t.Fatal("the measured quanta never took the fast path")
	}
}

// TestBlocksBuiltOnFirstEntry runs a method whose branch always skips
// a pure run and checks the run's blocks were never built: a block is
// built when execution first enters it, not when its method compiles.
func TestBlocksBuiltOnFirstEntry(t *testing.T) {
	p := newProg()
	c := p.NewClass("Lazy", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	live := a.NewLabel()
	a.ConstI(1)
	a.ConstI(0)
	a.IfICmpGE(live) // always taken
	for i := 0; i < 4; i++ {
		a.ConstI(3)
		a.StoreI(0)
		a.LoadI(0)
		a.ConstI(5)
		a.MulI()
		a.StoreI(0)
	}
	a.Bind(live)
	a.ConstI(7)
	a.Ret()
	a.MustBuild()
	vmach, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vmach.RunMain("Lazy", "main"); err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, comp := range vmach.compilers {
		cm := comp.Lookup(m)
		if cm == nil {
			continue
		}
		ran++
		br := 0
		for cm.Code[br].Op != isa.OpIfCmpI {
			br++
		}
		target := int(cm.Code[br].B)
		if cm.SB[0] == nil || cm.SB[target] == nil {
			t.Errorf("%v: entered blocks unbuilt: SB[0]=%v SB[%d]=%v",
				cm.Target, cm.SB[0], target, cm.SB[target])
		}
		for q := br + 1; q < target; q++ {
			if cm.SB[q] != nil {
				t.Errorf("%v: skipped index %d has a block: %+v", cm.Target, q, cm.SB[q])
			}
		}
	}
	if ran == 0 {
		t.Fatal("Lazy.main was never compiled")
	}
}

// TestMarkerFrameWithoutCallerTraps is the regression test for the
// malformed-migration livelock: a thread whose only frame is a migration
// marker must trap (markers are always pushed beneath a callee), not spin
// in execute without charging a cycle.
func TestMarkerFrameWithoutCallerTraps(t *testing.T) {
	vmach, err := New(testConfig(), newProg())
	if err != nil {
		t.Fatal(err)
	}
	core := vmach.Machine.Cores()[0]
	th := &Thread{
		ID:     99,
		Name:   "malformed",
		State:  StateRunning,
		Frames: []*Frame{{Marker: true}},
	}
	before := core.Now
	vmach.execute(core, th, 1000)
	if th.State != StateTerminated {
		t.Fatalf("thread state %v, want terminated (execute must not spin)", th.State)
	}
	if th.Trap == nil || !strings.Contains(th.Trap.Error(), "migration marker") {
		t.Fatalf("trap = %v, want migration-marker InternalError", th.Trap)
	}
	if core.Now != before {
		t.Errorf("trap should not charge cycles (now %d -> %d)", before, core.Now)
	}
}
