package main

import (
	"fmt"
	"runtime"

	"herajvm/internal/core"
	"herajvm/internal/vm"
)

// The batch workload is a closed loop with one client: each job boots
// a fresh VM, runs one paper program to completion and is checked
// before the next job starts. This is how herajvm and herabench users
// spend host time, nearly all of it in vm execution, jit and the
// software caches; admission, scheduler contention, kernels and the
// cluster do almost nothing here.

// batchTopology is the machine every batch job boots.
var batchTopology = mustTopology("ppe:1,spe:4,vpu:2")

// batchScales lists, per paper program, the scales its jobs run at, an
// equal number of jobs at each. Scale sets the data footprint of
// compress (the data-cache-bound program) and the frame count of
// mpegaudio (the code-cache-bound one). The seed draws which job gets
// which scale and the job order, never the multiset, so the host work
// of a pass is the same for every seed.
var batchScales = []struct {
	program string
	scales  []int
}{
	{"compress", []int{1}},
	{"mpegaudio", []int{1, 2}},
	{"mandelbrot", []int{2, 3}},
}

// batchJobsPerProgram makes a full pass 102 jobs: the nearest-rank p90
// of 102 latencies has ten jobs beyond it.
const batchJobsPerProgram = 34

// batchJobs draws the batch job list: perProgram jobs of each paper
// program in a seeded order.
func batchJobs(seed uint64, perProgram int) []job {
	rng := &prng{state: seed}
	var jobs []job
	for _, b := range batchScales {
		spec := mustSpec(b.program)
		for i := 0; i < perProgram; i++ {
			jobs = append(jobs, job{spec: spec, threads: batchTopology.DefaultWorkers(),
				scale: b.scales[i%len(b.scales)]})
		}
	}
	rng.shuffle(jobs)
	return jobs
}

func batchConfig(stepped bool) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.Machine.Topology = batchTopology
	cfg.DisableSuperblocks = stepped
	return cfg
}

// runBatchJob builds and boots one job's VM and runs the job on it. A
// collection first frees the previous job's VM, so every boot finds the
// same heap whatever the previous job left behind: without it the 64 MB
// main memory of a boot is fresh from the OS on some jobs and recycled
// (and zeroed) on others, and boot time swings by an order of magnitude.
func runBatchJob(tr *tracer, i int, j job, cfg vm.Config, runSpan string, p *pass) error {
	runtime.GC()
	resetPeakRSS()
	root := tr.begin("job", i, j.spec.Name)
	defer tr.end(root)

	m := tr.begin("workloads.build", i, j.spec.Name)
	prog, err := j.spec.Build(j.threads, j.scale)
	setup := tr.end(m)
	if err != nil {
		return fmt.Errorf("batch job %d: build %s: %w", i, j.spec.Name, err)
	}
	m = tr.begin("vm.boot", i, j.spec.Name)
	sys, err := core.NewSystem(cfg, prog)
	setup += tr.end(m)
	if err != nil {
		return fmt.Errorf("batch job %d: boot: %w", i, err)
	}
	p.setups = append(p.setups, setup)
	p.sim["vm.boots"]++

	m = tr.begin(runSpan, i, j.spec.Name)
	res, runErr := submitAndWait(sys, j)
	p.addWindow(fmt.Sprintf("%s/%d", j.spec.Name, j.scale), tr.end(m))
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	p.rssMB = append(p.rssMB, rss)
	p.record(i, j, res, runErr)
	if res != nil {
		p.simCycles += uint64(res.Cycles)
	}
	before := p.sim["vm.instrs"]
	p.sim.addMachine(sys.VM)
	p.sim["vm.instrs."+j.spec.Name] += p.sim["vm.instrs"] - before
	return nil
}

func submitAndWait(sys *core.System, j job) (*core.Result, error) {
	h, _, err := sys.Submit(core.JobRequest{Class: j.spec.MainClass, Method: "main"})
	if err != nil {
		return nil, err
	}
	return h.Wait()
}

func batchPass(jobs []job, tr *tracer) (*pass, error) {
	p := newPass()
	for i, j := range jobs {
		if err := runBatchJob(tr, i, j, batchConfig(false), "vm.run", p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// batchStepped runs the first job of each program once more with the
// superblock fast path off, for the traced run's stepped-speed metric.
func batchStepped(jobs []job, tr *tracer) (*pass, error) {
	p := newPass()
	seen := map[string]bool{}
	for i, j := range jobs {
		if seen[j.spec.Name] {
			continue
		}
		seen[j.spec.Name] = true
		if err := runBatchJob(tr, i, j, batchConfig(true), "vm.run_stepped", p); err != nil {
			return nil, err
		}
	}
	return p, nil
}
