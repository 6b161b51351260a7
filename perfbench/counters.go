package main

import (
	"math"
	"sort"

	"herajvm/internal/core"
	"herajvm/internal/vm"
)

// counts holds the simulated per-layer counters of one pass, keyed by
// per-layer metric name. They are model outputs, so every pass over
// the same job list must produce the same counts.
type counts map[string]float64

// addMachine reads the public per-core counters (profile.CoreStats) of
// a VM whose jobs have all completed. The cache.* counters cover the
// local-store cores only: those are the SPE-style software caches, the
// PPE's hardware caches are part of the cell model.
func (c counts) addMachine(v *vm.VM) {
	for _, core := range v.Machine.Cores() {
		st := &core.Stats
		c["vm.instrs"] += float64(st.Instrs)
		c["vm.ff_instrs"] += float64(st.FastForwardedInstrs)
		c["vm.ff_blocks"] += float64(st.FastForwardedBlocks)
		c["cell.dma_transfers"] += float64(st.DMATransfers)
		c["cell.dma_mbytes"] += float64(st.DMABytes) / 1e6
		c["cell.dma_wait_mcycles"] += float64(st.DMAWait) / 1e6
		c["cell.busy_cycles"] += float64(st.Busy())
		c["cell.idle_cycles"] += float64(st.Idle)
		c["sched.steals"] += float64(st.StealsIn)
		c["sched.migrations"] += float64(st.MigrationsIn)
		if core.Kind.UsesLocalStore() {
			c["cache.data_hits"] += float64(st.DataHits)
			c["cache.data_misses"] += float64(st.DataMisses)
			c["cache.data_flushes"] += float64(st.DataFlushes)
			c["cache.data_purges"] += float64(st.DataPurges)
			c["cache.writebacks"] += float64(st.DataWriteBacks)
			c["cache.code_hits"] += float64(st.CodeHits)
			c["cache.code_misses"] += float64(st.CodeMisses)
		}
	}
}

// addResult reads one completed job's public counters (core.Result).
func (c counts) addResult(r *core.Result) {
	c["vm.compiles"] += float64(r.Compiles)
	c["vm.gc_pauses"] += float64(r.GCPauses)
	c["vm.gc_mcycles"] += float64(r.GCCycles) / 1e6
	c["kernel.launches"] += float64(r.KernelLaunches)
	c["kernel.workers"] += float64(r.KernelWorkers)
	c["kernel.dma_bytes"] += float64(r.KernelDMABytes)
	switch r.Verdict {
	case core.Admitted:
		c["core.admitted"]++
	case core.Delayed:
		c["core.delayed"]++
	}
}

// ratios adds the derived per-layer ratios and drops their raw inputs.
func (c counts) ratios() {
	c["vm.ff_ratio"] = share(c["vm.ff_instrs"], c["vm.instrs"])
	c["cache.data_hit_ratio"] = share(c["cache.data_hits"], c["cache.data_hits"]+c["cache.data_misses"])
	c["cache.code_hit_ratio"] = share(c["cache.code_hits"], c["cache.code_hits"]+c["cache.code_misses"])
	c["cell.idle_ratio"] = share(c["cell.idle_cycles"], c["cell.idle_cycles"]+c["cell.busy_cycles"])
	delete(c, "cell.idle_cycles")
	delete(c, "cell.busy_cycles")
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// failedLatency stands for the latency of a job that failed or was shed:
// it misses every latency limit, so it sorts above every real latency.
const failedLatency = math.MaxUint64

// percentile is the nearest-rank percentile of unsorted values.
func percentile(values []uint64, p int) uint64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]uint64(nil), values...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the median of values (the mean of the middle two for
// an even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
