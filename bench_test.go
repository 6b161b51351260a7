// Benchmarks that regenerate each figure of the paper's evaluation
// (Figures 4(a), 4(b), 5, 6, 7) and the DESIGN.md ablations at reduced
// scale, reporting the figure's headline numbers as benchmark metrics.
// `cmd/herabench` produces the full tables; these provide a
// `go test -bench` entry point per experiment plus microbenchmarks of
// the simulator substrates.
package hera_test

import (
	"testing"

	hera "herajvm"
	"herajvm/internal/cache"
	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/experiments"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
	"herajvm/internal/mem"
	"herajvm/internal/vm"
	"herajvm/internal/workloads"
)

func benchOpts() experiments.Options {
	return experiments.Options{
		Threads: 6,
		MaxSPEs: 6,
		ScaleOverride: map[string]int{
			"compress":   1,
			"mpegaudio":  2,
			"mandelbrot": 2,
		},
	}
}

// BenchmarkFig4aSpeedup regenerates Figure 4(a) (speedup vs PPE on 1 and
// 6 SPEs) and reports the three workloads' 6-SPE speedups.
func BenchmarkFig4aSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig4a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range f.Rows {
			b.ReportMetric(r.SixSPE, r.Workload+"-6spe-x")
		}
	}
}

// BenchmarkFig4bScalability regenerates Figure 4(b) (speedup on 1..6
// SPEs relative to one SPE).
func BenchmarkFig4bScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig4b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range f.Rows {
			b.ReportMetric(r.Scaling[len(r.Scaling)-1], r.Workload+"-scale6")
		}
	}
}

// BenchmarkFig5CycleBreakdown regenerates Figure 5 (proportion of SPE
// cycles per operation type) and reports mandelbrot's FP share and
// compress's main-memory share — the paper's two headline observations.
func BenchmarkFig5CycleBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range f.Rows {
			switch r.Workload {
			case "mandelbrot":
				b.ReportMetric(r.Shares[1], "mandel-fp-share") // ClassFloat
			case "compress":
				b.ReportMetric(r.Shares[5], "compress-mem-share") // ClassMainMem
			}
		}
	}
}

// BenchmarkFig6DataCache regenerates Figure 6 (data-cache size sweep)
// and reports compress's degradation at the smallest size.
func BenchmarkFig6DataCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range f.Rows {
			if r.Workload == "compress" {
				b.ReportMetric(r.RelPerf[0], "compress-8kb-relperf")
				b.ReportMetric(r.HitRate[len(r.HitRate)-1], "compress-104kb-hitrate")
			}
		}
	}
}

// BenchmarkFig7CodeCache regenerates Figure 7 (code-cache size sweep)
// and reports mpegaudio's collapse at the smallest size.
func BenchmarkFig7CodeCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range f.Rows {
			if r.Workload == "mpegaudio" {
				b.ReportMetric(r.RelPerf[0], "mpeg-8kb-relperf")
			}
		}
	}
}

// BenchmarkAblationBlockSize regenerates ablation A1 (array block size).
func BenchmarkAblationBlockSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMigration regenerates ablation A2 (migration
// amortisation) and reports the break-even work size.
func BenchmarkAblationMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunA2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(a.BreakEvenOps), "breakeven-units")
	}
}

// BenchmarkAblationCacheSplit regenerates ablation A3 (data/code split).
func BenchmarkAblationCacheSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA3(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCoherence regenerates ablation A4 (JMM purge/flush
// cost).
func BenchmarkAblationCoherence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA4(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenchmarks ---

// BenchmarkInterpreterThroughput measures simulated instructions per
// second of host time for the mandelbrot inner loop on one SPE.
func BenchmarkInterpreterThroughput(b *testing.B) {
	spec := workloads.Mandelbrot()
	prog, err := spec.Build(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog, _ = spec.Build(1, 2)
		cfg := vm.DefaultConfig()
		cfg.Machine.Topology = cell.PS3Topology(1)
		machine, err := vm.New(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := machine.RunMain(spec.MainClass, "main"); err != nil {
			b.Fatal(err)
		}
		instrs += machine.Machine.CoresOf(hera.SPE)[0].Stats.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkDataCacheHit measures the host cost of a software-cache hit.
func BenchmarkDataCacheHit(b *testing.B) {
	cfg := hera.DefaultConfig()
	machine, err := cell.NewMachine(cfg.Machine)
	if err != nil {
		b.Fatal(err)
	}
	dc := newBenchDataCache(machine)
	_, now := dc.ReadObject(0, 0x100000, 64, 16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, now = dc.ReadObject(now, 0x100000, 64, 16, 8)
	}
}

func newBenchDataCache(m *cell.Machine) *cache.DataCache {
	return cache.NewDataCache(cache.DefaultDataCacheConfig(), m.CoresOf(hera.SPE)[0], 0)
}

// BenchmarkEIBTransfer measures the host cost of bus arbitration.
func BenchmarkEIBTransfer(b *testing.B) {
	e := cell.NewEIB(cell.DefaultEIBConfig())
	now := cell.Clock(0)
	for i := 0; i < b.N; i++ {
		now = e.Transfer(now, 1024)
	}
}

// BenchmarkMainMemory measures simulated memory accessor throughput.
func BenchmarkMainMemory(b *testing.B) {
	m := mem.NewMain(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Write64(uint32(i)&0xffff8, uint64(i))
		_ = m.Read64(uint32(i) & 0xffff8)
	}
}

// mpegaudioMethods builds mpegaudio and returns every method the JIT
// can compile (bytecode-bearing, neither native nor abstract).
func mpegaudioMethods(b *testing.B) []*classfile.Method {
	prog, err := workloads.MPEGAudio().Build(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := prog.Resolve(); err != nil {
		b.Fatal(err)
	}
	var methods []*classfile.Method
	for _, c := range prog.Classes() {
		for _, m := range c.Methods {
			if !m.IsNative() && !m.IsAbstract() && m.Code != nil {
				methods = append(methods, m)
			}
		}
	}
	return methods
}

// compileSPE compiles methods for the SPE on a fresh compiler over its
// own code region of main.
func compileSPE(b *testing.B, main *mem.Main, methods []*classfile.Method) []*jit.CompiledMethod {
	region, err := mem.NewLayout(main.Size(), 4096).Carve("spe-code", main.Size()/2)
	if err != nil {
		b.Fatal(err)
	}
	c := jit.NewCompiler(isa.SPE, main, region)
	c.InternString = func(string) (uint32, error) { return 0, nil }
	cms := make([]*jit.CompiledMethod, len(methods))
	for i, m := range methods {
		if cms[i], err = c.Compile(m); err != nil {
			b.Fatal(err)
		}
	}
	return cms
}

// BenchmarkJITCompile measures the JIT compile layer: baseline-compiling
// all of mpegaudio's methods for the SPE on a fresh compiler.
func BenchmarkJITCompile(b *testing.B) {
	methods := mpegaudioMethods(b)
	main := mem.NewMain(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileSPE(b, main, methods)
	}
}

// BenchmarkSuperblockBuild measures superblock construction: building
// the block at every index of mpegaudio's SPE methods, the most that
// execution can ever ask Block for.
func BenchmarkSuperblockBuild(b *testing.B) {
	methods := mpegaudioMethods(b)
	main := mem.NewMain(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cms := compileSPE(b, main, methods)
		b.StartTimer()
		for _, cm := range cms {
			for p := range cm.Code {
				cm.Block(p)
			}
		}
	}
}
