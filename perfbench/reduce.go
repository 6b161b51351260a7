package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// programs are the paper programs the per-program metrics cover.
var programs = []string{"compress", "mpegaudio", "mandelbrot"}

// profPackages are the packages whose flat CPU share the traced run
// reports; profFuncs the vm execution paths whose cumulative share it
// reports, which no public boundary separates.
var (
	profPackages = []string{"vm", "jit", "cache", "cell", "mem", "sched", "kernel", "core", "cluster", "runtime"}
	profFuncs    = []struct{ metric, fn string }{
		{"prof.vm.step_share", "herajvm/internal/vm.(*VM).step"},
		{"prof.vm.runMicro_share", "herajvm/internal/vm.(*VM).runMicro"},
		{"prof.vm.runPure_share", "herajvm/internal/vm.runPure"},
	}
)

// perLayer lists the per-layer metrics with their units, in print
// order. A metric a workload does not exercise reads 0.
func perLayer() []metricDef {
	out := []metricDef{{"workloads.build_s", "s"}, {"vm.boot_s", "s"}, {"vm.boots", "count"}}
	for _, p := range programs {
		out = append(out, metricDef{"vm.run_s." + p, "s"}, metricDef{"vm.minstr_per_s." + p, "Minstr/s"},
			metricDef{"vm.stepped_minstr_per_s." + p, "Minstr/s"})
	}
	out = append(out, []metricDef{
		{"vm.instrs", "count"}, {"vm.ff_instrs", "count"}, {"vm.ff_blocks", "count"}, {"vm.ff_ratio", "ratio"},
		{"vm.compiles", "count"}, {"vm.gc_pauses", "count"}, {"vm.gc_mcycles", "Mcycles"},
		{"cache.data_hits", "count"}, {"cache.data_misses", "count"}, {"cache.data_hit_ratio", "ratio"},
		{"cache.data_flushes", "count"}, {"cache.data_purges", "count"}, {"cache.writebacks", "count"},
		{"cache.code_hits", "count"}, {"cache.code_misses", "count"}, {"cache.code_hit_ratio", "ratio"},
		{"cell.dma_transfers", "count"}, {"cell.dma_mbytes", "MB"}, {"cell.dma_wait_mcycles", "Mcycles"},
		{"cell.idle_ratio", "ratio"},
		{"kernel.launches", "count"}, {"kernel.workers", "count"}, {"kernel.dma_bytes", "bytes"},
		{"sched.steals", "count"}, {"sched.migrations", "count"},
		{"core.submit_s", "s"}, {"core.submits", "count"}, {"core.submit_us_p50", "us"},
		{"core.admitted", "count"}, {"core.delayed", "count"}, {"core.run_until_s", "s"}, {"core.drain_s", "s"},
		{"cluster.boot_s", "s"}, {"cluster.advance_s", "s"}, {"cluster.dispatch_s", "s"},
		{"cluster.drain_s", "s"}, {"cluster.results_s", "s"},
		{"cluster.barriers", "count"}, {"cluster.handoffs", "count"}, {"cluster.shard_util_min", "ratio"},
		{"cluster.routed_max_share", "ratio"},
		{"go.alloc_mb", "MB"}, {"go.mallocs", "count"}, {"go.gc_count", "count"},
	}...)
	for _, p := range profPackages {
		out = append(out, metricDef{"prof." + p + "_share", "ratio"})
	}
	for _, f := range profFuncs {
		out = append(out, metricDef{f.metric, "ratio"})
	}
	return append(out, metricDef{"trace.jobs_per_s", "1/s"}, metricDef{"trace.sim_minstr_per_s", "Minstr/s"},
		metricDef{"trace.overhead_pct", "%"})
}

// spanMetrics maps per-layer time metrics to the spans they sum (self
// time, per traced pass). The cluster boots its shards' VMs inside
// cluster.Boot, around the build closures, so that span's self time is
// VM boot time.
var spanMetrics = map[string][]string{
	"workloads.build_s":  {"workloads.build"},
	"vm.boot_s":          {"vm.boot", "cluster.boot"},
	"core.submit_s":      {"core.submit"},
	"core.run_until_s":   {"core.run_until"},
	"core.drain_s":       {"core.drain"},
	"cluster.advance_s":  {"cluster.advance"},
	"cluster.dispatch_s": {"cluster.dispatch"},
	"cluster.drain_s":    {"cluster.drain"},
	"cluster.results_s":  {"cluster.results"},
}

// reduce computes the per-layer metrics of a traced run from the files
// it wrote: spans.json, passes.json and cpu.pprof.
func reduce(dir string) (map[string]metric, error) {
	var spans []span
	var tf traceFile
	if err := readJSON(filepath.Join(dir, "spans.json"), &spans); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, "passes.json"), &tf); err != nil {
		return nil, err
	}
	if len(tf.Traced) == 0 {
		return nil, fmt.Errorf("%s: no traced passes", dir)
	}
	if err := checkNesting(spans); err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	n := float64(len(tf.Traced))
	v := map[string]float64{}

	// Spans: self time by name, split into the traced passes and the
	// stepped pass by their root span.
	self := selfSeconds(spans)
	passSelf, steppedSelf := map[string]float64{}, map[string]float64{}
	var submitUS []float64
	for i, s := range spans {
		root := s
		for root.Parent >= 0 {
			root = spans[root.Parent]
		}
		into := passSelf
		if root.Name == "stepped" {
			into = steppedSelf
		}
		into[s.Name] += self[i]
		if s.Arg != "" {
			into[s.Name+"."+s.Arg] += self[i]
		}
		switch s.Name {
		case "cluster.boot":
			v["cluster.boot_s"] += s.seconds() / n
		case "core.submit":
			submitUS = append(submitUS, s.seconds()*1e6)
		}
	}
	for name, from := range spanMetrics {
		for _, s := range from {
			v[name] += passSelf[s] / n
		}
	}
	v["core.submit_us_p50"] = median(submitUS)

	// Counters are simulated, identical on every pass; memory is read
	// from the untraced reference pass.
	for k, c := range tf.Traced[0].Sim {
		v[k] = c
	}
	v["go.alloc_mb"] = tf.Reference.AllocMB
	v["go.mallocs"] = tf.Reference.Mallocs
	v["go.gc_count"] = tf.Reference.GCs
	for _, p := range programs {
		run := passSelf["vm.run."+p] / n
		v["vm.run_s."+p] = run
		v["vm.minstr_per_s."+p] = share(v["vm.instrs."+p], run) / 1e6
		if tf.Stepped != nil {
			v["vm.stepped_minstr_per_s."+p] = share(tf.Stepped.Sim["vm.instrs."+p], steppedSelf["vm.run_stepped."+p]) / 1e6
		}
	}

	var jobs, minstr, exec []float64
	for _, r := range tf.Traced {
		jobs = append(jobs, float64(r.Attempted-r.Failed)/r.ExecS)
		minstr = append(minstr, r.Sim["vm.instrs"]/r.ExecS/1e6)
		exec = append(exec, r.ExecS)
	}
	v["trace.jobs_per_s"] = median(jobs)
	v["trace.sim_minstr_per_s"] = median(minstr)
	v["trace.overhead_pct"] = 100 * (median(exec)/tf.Reference.ExecS - 1)

	if err := profShares(dir, v); err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for _, m := range perLayer() {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return out, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// execSpans matches the profiler label of the spans that execute jobs,
// as opposed to building programs, booting and the benchmark's own code.
const execSpans = `^(vm\.run|core\.(run_until|submit|drain|results)|cluster\.(advance|dispatch|drain|results))$`

// profShares reduces cpu.pprof with the toolchain's pprof to the
// prof.* shares of the samples taken while jobs executed: each
// package's flat share, and the cumulative share of each vm execution
// path. Goroutines the Go runtime starts itself, such as the background
// GC workers, carry no span label and are left out. The listing the
// shares come from is kept beside the profile as pprof_exec_top.txt.
func profShares(dir string, v map[string]float64) error {
	top, err := pprofExecTop(dir)
	if err != nil {
		return err
	}
	var total float64
	flat := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 {
			continue
		}
		fl, err1 := parseMS(f[0])
		cum, err2 := parseMS(f[3])
		if err1 != nil || err2 != nil {
			continue // a header line
		}
		fn := strings.Join(f[5:], " ")
		total += fl
		flat[packageOf(fn)] += fl
		for _, f := range profFuncs {
			if fn == f.fn || fn == f.fn+" (inline)" {
				v[f.metric] = cum
			}
		}
	}
	if total == 0 {
		return nil // too short a run for a sample
	}
	for _, p := range profPackages {
		v["prof."+p+"_share"] = flat[p] / total
	}
	for _, f := range profFuncs {
		v[f.metric] /= total
	}
	return nil
}

// pprofExecTop writes go tool pprof's flat listing of the execution
// samples in dir's cpu.pprof to pprof_exec_top.txt and returns it.
func pprofExecTop(dir string) ([]byte, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-tagfocus=span="+execSpans, filepath.Join(dir, "cpu.pprof"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return top, os.WriteFile(filepath.Join(dir, "pprof_exec_top.txt"), top, 0o644)
}

func parseMS(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// packageOf names the package a profiled function belongs to: the
// repo's packages by their last element, the Go runtime as "runtime".
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "herajvm/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		return pkg
	}
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/"} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	return ""
}
