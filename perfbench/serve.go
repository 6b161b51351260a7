package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/cluster"
	"herajvm/internal/core"
	"herajvm/internal/vm"
	"herajvm/internal/workloads"
)

// The serve and cluster workloads are open loops in simulated time:
// jobs arrive at seeded cycles whether or not the machine keeps up, and
// the single-threaded host driver advances the machine to each arrival
// and submits, as fast as the host allows. Many short jobs share one
// booted machine, so the work lands in the layers batch barely touches:
// admission probes, steal and migrate decisions across many jobs'
// threads, per-job JIT compiles of isolated class copies, and forRange
// launches with their DMA staging.

// mixScales are the scales of the round-robin job mix: the three paper
// programs and the three forRange kernels, each job short. Alone on the
// serve machine the jobs take three well-separated latency levels:
// nbody and kmeans under 0.5 Mcycles, mandelbrot, matmul and mpegaudio
// 4 to 6, compress 24. The nearest-rank p50 then falls inside the middle
// level and the p90 inside the top one, so neither percentile sits on a
// boundary where a small shift in queueing swaps the program it reads.
var mixScales = []struct {
	program string
	scale   int
}{
	{"compress", 1}, {"mpegaudio", 2}, {"mandelbrot", 3},
	{"matmul", 3}, {"nbody", 2}, {"kmeans", 4},
}

const (
	// mixThreads is the worker count of every mix job.
	mixThreads = 2
	// mixJobs makes a full pass 102 jobs, so the nearest-rank p90 has
	// ten jobs beyond it.
	mixJobs = 102
	// mixDeadline is each job's completion deadline in cycles after
	// admission. Shedding is off, so it only decides DeadlineMet and
	// which jobs the cluster's hand-off pass tries to rescue.
	mixDeadline = 60_000_000
)

// mixJobList returns n round-robin mix jobs with the given arrivals.
func mixJobList(arrivals []cell.Clock) []job {
	jobs := make([]job, len(arrivals))
	for i := range jobs {
		m := mixScales[i%len(mixScales)]
		jobs[i] = job{spec: mustSpec(m.program), threads: mixThreads, scale: m.scale, arrival: arrivals[i]}
	}
	return jobs
}

// serveMeanGap is the mean inter-arrival gap in cycles. The rate stays
// below what the serve machine carries: queues build where arrivals
// bunch (a few jobs in a hundred are admitted as delayed) but do not
// grow without bound, so latencies stay comparable across seeds. Closer
// to saturation the p50 and p90 swing by half from seed to seed.
const serveMeanGap = 5_000_000

// serveJobs draws Poisson arrivals for n mix jobs, the last at n mean
// gaps. Given that its n-th arrival falls there, a Poisson process
// places the other n-1 as sorted uniform draws before it; fixing the
// window keeps the offered load the same for every seed, and the seed
// moves only where the arrivals bunch.
func serveJobs(seed uint64, n int) []job {
	rng := &prng{state: seed}
	return mixJobList(poissonArrivals(rng, n, float64(n)*serveMeanGap))
}

// poissonArrivals returns n sorted arrival cycles, the last at span.
func poissonArrivals(rng *prng, n int, span float64) []cell.Clock {
	arrivals := make([]cell.Clock, n)
	for i := range arrivals[:n-1] {
		arrivals[i] = cell.Clock(span * (1 - rng.float64()))
	}
	arrivals[n-1] = cell.Clock(span)
	sort.Slice(arrivals, func(a, b int) bool { return arrivals[a] < arrivals[b] })
	return arrivals
}

// The cluster's arrivals come in bursts of clusterBurst jobs, one
// burst in each window of clusterBurst*clusterMeanGap cycles.
const (
	clusterMeanGap = 2_500_000
	clusterBurst   = 4
)

// clusterJobs draws bursty arrivals for n mix jobs: each burst leader at
// a uniform offset in the first half of its window, the rest of the
// burst close behind at exponential gaps of a tenth of the mean.
// Spacing the bursts by window keeps the offered load, and the cycle the
// last burst lands, nearly the same for every seed.
func clusterJobs(seed uint64, n int) []job {
	rng := &prng{state: seed}
	window := float64(clusterMeanGap * clusterBurst)
	arrivals := make([]cell.Clock, 0, n)
	var t float64
	for i := 0; i < n; i++ {
		if i%clusterBurst == 0 {
			t = window * (float64(i/clusterBurst) + rng.float64()/2)
		} else {
			t += rng.exp(clusterMeanGap * 0.1)
		}
		arrivals = append(arrivals, cell.Clock(t))
	}
	return mixJobList(arrivals)
}

func mixEntries(jobs []job) []workloads.MixEntry {
	entries := make([]workloads.MixEntry, len(jobs))
	for i, j := range jobs {
		entries[i] = workloads.MixEntry{Spec: j.spec, Threads: j.threads, Scale: j.scale}
	}
	return entries
}

func mixRequest(i int, j job) core.JobRequest {
	return core.JobRequest{
		Class:    workloads.JobPrefix(i) + j.spec.MainClass,
		Method:   "main",
		Name:     fmt.Sprintf("%s#%d", j.spec.Name, i),
		Arrival:  j.arrival,
		Deadline: mixDeadline,
	}
}

// mixConfig is one machine of the serve and cluster workloads: the
// migrate scheduler, and admission that never sheds.
func mixConfig(topology string) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.Machine.Topology = mustTopology(topology)
	cfg.Scheduler = "migrate"
	return cfg
}

// buildMix builds the program holding every job's classes.
func buildMix(tr *tracer, jobs []job) (*classfile.Program, error) {
	m := tr.begin("workloads.build", -1, "")
	defer tr.end(m)
	return workloads.BuildMix(mixEntries(jobs))
}

// serveSetup builds the program of every job and boots the serve
// machine, returning it and the host seconds that took.
func serveSetup(jobs []job, tr *tracer) (*core.System, float64, error) {
	m := tr.begin("setup", -1, "")
	defer tr.end(m)
	prog, err := buildMix(tr, jobs)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: build: %w", err)
	}
	b := tr.begin("vm.boot", -1, "")
	sys, err := core.NewSystem(mixConfig("ppe:1,spe:4,vpu:2"), prog)
	tr.end(b)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: boot: %w", err)
	}
	return sys, time.Since(m.start).Seconds(), nil
}

func servePass(jobs []job, tr *tracer) (*pass, error) {
	p := newPass()
	sys, setup, err := serveSetup(jobs, tr)
	if err != nil {
		return nil, err
	}
	p.setups = append(p.setups, setup)
	p.sim["vm.boots"]++

	handles := make([]*core.Job, len(jobs))
	submitErrs := make([]error, len(jobs))
	for i, j := range jobs {
		m := tr.begin("core.run_until", i, j.spec.Name)
		err := sys.RunUntil(j.arrival)
		advance := tr.end(m)
		if err != nil {
			return nil, fmt.Errorf("serve: advancing to job %d: %w", i, err)
		}
		m = tr.begin("core.submit", i, j.spec.Name)
		handles[i], _, submitErrs[i] = sys.Submit(mixRequest(i, j))
		p.addWindow(strconv.Itoa(i), advance+tr.end(m))
		p.sim["core.submits"]++
	}
	m := tr.begin("core.drain", -1, "")
	err = sys.Drain()
	p.addWindow("drain", tr.end(m))
	if err != nil {
		return nil, fmt.Errorf("serve: drain: %w", err)
	}

	m = tr.begin("core.results", -1, "")
	for i, j := range jobs {
		if submitErrs[i] != nil {
			p.record(i, j, nil, submitErrs[i])
			continue
		}
		res, err := handles[i].Wait()
		p.record(i, j, res, err)
		if res != nil && uint64(res.CompletedAt) > p.simCycles {
			p.simCycles = uint64(res.CompletedAt)
		}
	}
	p.addWindow("results", tr.end(m))
	p.sim.addMachine(sys.VM)
	return p, nil
}

// clusterShards are the cluster's two shards, of different shapes.
var clusterShards = []string{"ppe:1,spe:4,vpu:2", "ppe:1,spe:6"}

// clusterSetup boots the fleet, each shard building its own copy of
// every job's program, and returns it and the host seconds that took.
func clusterSetup(jobs []job, tr *tracer) (*cluster.Cluster, float64, error) {
	shards := make([]cluster.ShardConfig, len(clusterShards))
	for i, topo := range clusterShards {
		shards[i] = cluster.ShardConfig{
			Cfg:   mixConfig(topo),
			Build: func() (*classfile.Program, error) { return buildMix(tr, jobs) },
		}
	}
	m := tr.begin("cluster.boot", -1, "")
	c, err := cluster.Boot(cluster.Config{Handoff: true}, shards)
	setup := tr.end(m)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: %w", err)
	}
	return c, setup, nil
}

func clusterPass(jobs []job, tr *tracer) (*pass, error) {
	p := newPass()
	c, setup, err := clusterSetup(jobs, tr)
	if err != nil {
		return nil, err
	}
	p.setups = append(p.setups, setup)
	p.sim["vm.boots"] += float64(len(clusterShards))

	dispatched := make([]*cluster.Job, len(jobs))
	submitErrs := make([]error, len(jobs))
	for i, j := range jobs {
		m := tr.begin("cluster.advance", i, j.spec.Name)
		err := c.AdvanceTo(j.arrival)
		advance := tr.end(m)
		if err != nil {
			return nil, fmt.Errorf("cluster: advancing to job %d: %w", i, err)
		}
		m = tr.begin("cluster.dispatch", i, j.spec.Name)
		dispatched[i], _, submitErrs[i] = c.Submit(mixRequest(i, j))
		p.addWindow(strconv.Itoa(i), advance+tr.end(m))
		p.sim["core.submits"]++
	}
	m := tr.begin("cluster.drain", -1, "")
	err = c.Drain()
	p.addWindow("drain", tr.end(m))
	if err != nil {
		return nil, fmt.Errorf("cluster: drain: %w", err)
	}

	m = tr.begin("cluster.results", -1, "")
	results, err := c.Results()
	var table string
	if err == nil {
		table, err = c.JobsTable()
	}
	p.addWindow("results", tr.end(m))
	if err != nil {
		return nil, fmt.Errorf("cluster: results: %w", err)
	}
	bySeq := make(map[int]cluster.Result, len(results))
	for _, r := range results {
		bySeq[r.Seq] = r
	}
	for i, j := range jobs {
		if submitErrs[i] != nil {
			p.record(i, j, nil, submitErrs[i])
			continue
		}
		r := bySeq[dispatched[i].Seq]
		p.record(i, j, r.Res, r.Err)
		if uint64(r.Res.CompletedAt) > p.simCycles {
			p.simCycles = uint64(r.Res.CompletedAt)
		}
	}

	p.sim["cluster.barriers"] = float64(c.Barriers())
	p.sim["cluster.shard_util_min"] = 1
	routedMax := 0
	for _, s := range c.Shards() {
		p.sim.addMachine(s.Sys.VM)
		p.sim["cluster.handoffs"] += float64(s.HandoffsIn)
		p.sim["cluster.shard_util_min"] = min(p.sim["cluster.shard_util_min"], s.Utilization())
		routedMax = max(routedMax, s.Routed)
	}
	p.sim["cluster.routed_max_share"] = share(float64(routedMax), float64(len(jobs)))
	// The merged job table is the cluster's determinism contract: it
	// must repeat exactly across the passes of one seed.
	p.fingerprint += strings.TrimSpace(table) + "\n"
	return p, nil
}
