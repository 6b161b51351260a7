package main

import (
	"fmt"
	"math"

	"herajvm/internal/cell"
	"herajvm/internal/core"
	"herajvm/internal/workloads"
)

// job is one guest job of a workload's list: a program at a worker
// count and scale, plus its arrival cycle on the open-loop workloads.
type job struct {
	spec    workloads.Spec
	threads int
	scale   int
	arrival cell.Clock
}

// pass is what one execution of a workload's job list measured.
type pass struct {
	// setups are the host seconds of each set-up the pass made:
	// building guest programs and booting a VM or a fleet.
	setups []float64
	// windows holds the pass's host execution seconds, set-up excluded,
	// by window: a stretch of execution that is the same simulated work
	// on every pass over the job list. A batch window is a job class
	// (program and scale), timed once per job of the class; an open-loop
	// window is one job's advance and submit, the drain, or the
	// collection of results.
	windows map[string][]float64
	// rssMB is the host peak RSS of each job (closed loop) or of the
	// whole pass (open loop).
	rssMB []float64
	// allocMB, mallocs and gcs are filled in by the runner.
	allocMB, mallocs, gcs float64

	attempted, failed int
	// latencies are simulated admission→completion cycles per job,
	// failedLatency for a job that failed.
	latencies []uint64
	// simCycles is sim_mcycles in cycles.
	simCycles uint64
	sim       counts
	// fingerprint holds every simulated result of the pass; passes over
	// one job list must reproduce it exactly.
	fingerprint string
}

func newPass() *pass { return &pass{sim: counts{}, windows: map[string][]float64{}} }

// addWindow adds host execution seconds to the pass's time in window key.
func (p *pass) addWindow(key string, seconds float64) {
	p.windows[key] = append(p.windows[key], seconds)
}

// hostExecS is the host execution time of one pass over the job list,
// taken from the given passes: every window counts, as often as a pass
// times it, at the median of its times over all of them. A slow stretch
// of the host that covers a minority of a window's times does not move
// it, whether those fall in one pass or in a few jobs of a class.
func hostExecS(passes ...*pass) float64 {
	pooled := map[string][]float64{}
	for _, p := range passes {
		for k, times := range p.windows {
			pooled[k] = append(pooled[k], times...)
		}
	}
	var t float64
	for _, times := range pooled {
		t += float64(len(times)) / float64(len(passes)) * median(times)
	}
	return t
}

// record checks one finished job against its Go reference and adds its
// result to the pass. A job fails if it errors, traps, is shed or
// returns a wrong checksum.
func (p *pass) record(i int, j job, res *core.Result, err error) {
	p.attempted++
	want := j.spec.Reference(j.threads, j.scale)
	ok := err == nil && res != nil && !res.Shed && res.HasValue && int32(uint32(res.Value)) == want
	if res != nil {
		p.sim.addResult(res)
	}
	if !ok {
		p.failed++
		p.latencies = append(p.latencies, failedLatency)
		var got any = "no result"
		if res != nil {
			got = fmt.Sprintf("checksum %d (shed %v)", int32(uint32(res.Value)), res.Shed)
		}
		p.fingerprint += fmt.Sprintf("%d %s/%d failed: %v, want checksum %d, error %v\n",
			i, j.spec.Name, j.scale, got, want, err)
		return
	}
	p.latencies = append(p.latencies, uint64(res.Cycles))
	p.fingerprint += fmt.Sprintf("%d %s/%d %d..%d %d\n", i, j.spec.Name, j.scale,
		res.AdmittedAt, res.CompletedAt, int32(uint32(res.Value)))
}

// prng is splitmix64: a tiny, fully specified generator, so a seed
// names one job list on every Go version.
type prng struct{ state uint64 }

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in (0, 1].
func (p *prng) float64() float64 { return (float64(p.next()>>11) + 1) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// shuffle permutes jobs in place (Fisher–Yates).
func (p *prng) shuffle(jobs []job) {
	for i := len(jobs) - 1; i > 0; i-- {
		k := p.intn(i + 1)
		jobs[i], jobs[k] = jobs[k], jobs[i]
	}
}

// exp returns an exponential draw with the given mean.
func (p *prng) exp(mean float64) float64 { return -mean * math.Log(p.float64()) }

func mustSpec(name string) workloads.Spec {
	s, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

func mustTopology(s string) cell.Topology {
	t, err := cell.ParseTopology(s)
	if err != nil {
		panic(err)
	}
	return t
}
