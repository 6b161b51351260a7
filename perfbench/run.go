package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// measurePass runs the job list once and records the host memory it
// used. Each pass starts with the heap handed back to the OS and the
// process's peak-RSS mark reset, so its peak is its own.
func measurePass(w workload, jobs []job, tr *tracer, root string) (*pass, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := tr.begin(root, -1, "")
	p, err := w.run(jobs, tr)
	tr.end(m)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	if len(p.rssMB) == 0 {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		p.rssMB = append(p.rssMB, rss)
	}
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	p.mallocs = float64(after.Mallocs - before.Mallocs)
	p.gcs = float64(after.NumGC - before.NumGC)
	p.sim.ratios()
	return p, nil
}

// minPasses is the fewest passes a measurement makes, so that every
// run checks that its seed replays and every window has a time to
// compare with.
const minPasses = 2

// measure runs passes over the job list for the budget: it starts
// another pass while the last one would still fit, and always runs at
// least minPasses.
func measure(w workload, jobs []job, tr *tracer, budget time.Duration) ([]*pass, error) {
	var passes []*pass
	start := time.Now()
	for {
		t := time.Now()
		p, err := measurePass(w, jobs, tr, "pass")
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		exec := hostExecS(p)
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %.3f s executing, %.4g jobs/s, %.4g Minstr/s, set-up %.4g s, peak RSS %.4g MB\n",
			w.name, len(passes)-1, exec, float64(p.attempted-p.failed)/exec,
			p.sim["vm.instrs"]/exec/1e6, median(p.setups), median(p.rssMB))
		if len(passes) >= minPasses && time.Since(start)+time.Since(t) > budget {
			return passes, nil
		}
	}
}

// replays reports whether every pass reproduced the first pass's
// simulated results exactly; host timing must not leak into them.
func replays(passes []*pass) error {
	for i, p := range passes[1:] {
		if p.fingerprint != passes[0].fingerprint || !reflect.DeepEqual(p.sim, passes[0].sim) {
			return fmt.Errorf("pass %d's simulated results differ from pass 0's", i+1)
		}
	}
	return nil
}

// metricDef names a printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []metricDef{
	{"sim_minstr_per_s", "Minstr/s"},
	{"jobs_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_ok_ratio", "ratio"},
	{"sim_mcycles", "Mcycles"},
	{"sim_latency_p50_mcycles", "Mcycles"},
	{"sim_latency_p90_mcycles", "Mcycles"},
}

// summarize turns measured passes into the end-to-end metrics. Host
// speeds are one pass's simulated work over hostExecS of all passes;
// set-up time and peak RSS are medians over every set-up (extraSetups
// included) and every job or pass that recorded one. Simulated metrics
// are the same on every pass and come from the first.
func summarize(passes []*pass, extraSetups []float64) result {
	var rss []float64
	setups := append([]float64(nil), extraSetups...)
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range passes {
		rss = append(rss, p.rssMB...)
		setups = append(setups, p.setups...)
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	first := passes[0]
	exec := hostExecS(passes...)
	values := map[string]float64{
		"sim_minstr_per_s":        first.sim["vm.instrs"] / exec / 1e6,
		"jobs_per_s":              float64(first.attempted-first.failed) / exec,
		"setup_s":                 median(setups),
		"peak_rss_mb":             median(rss),
		"job_ok_ratio":            float64(res.Attempted-res.Failed) / float64(res.Attempted),
		"sim_mcycles":             float64(first.simCycles) / 1e6,
		"sim_latency_p50_mcycles": mcycles(percentile(first.latencies, 50)),
		"sim_latency_p90_mcycles": mcycles(percentile(first.latencies, 90)),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	if res.Failed > 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d jobs failed:\n%s", res.Failed, res.Attempted, first.fingerprint)
	}
	if err := replays(passes); err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return res
}

func mcycles(c uint64) float64 { return float64(c) / 1e6 }

// minSetups is the fewest set-ups a run takes set-up time from.
const minSetups = 5

// runPlain is the untraced run the end-to-end metrics come from. Where
// the passes set up fewer than minSetups times, it sets up again, from
// the same starting heap as a pass, until they reach it.
func runPlain(w workload, jobs []job, budget time.Duration) (result, error) {
	tr := newTracer(false)
	passes, err := measure(w, jobs, tr, budget)
	if err != nil {
		return result{}, err
	}
	var extra []float64
	for w.setup != nil && len(passes)+len(extra) < minSetups {
		debug.FreeOSMemory()
		s, err := w.setup(jobs, tr)
		if err != nil {
			return result{}, err
		}
		extra = append(extra, s)
	}
	return summarize(passes, extra), nil
}

// record is one pass as the traced run writes it to passes.json.
type record struct {
	ExecS     float64   `json:"exec_s"`
	Setups    []float64 `json:"setup_s"`
	PeakRSSMB []float64 `json:"peak_rss_mb"`
	AllocMB   float64   `json:"go_alloc_mb"`
	Mallocs   float64   `json:"go_mallocs"`
	GCs       float64   `json:"go_gc_count"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Sim       counts    `json:"sim"`
}

func recordOf(p *pass) record {
	return record{ExecS: hostExecS(p), Setups: p.setups, PeakRSSMB: p.rssMB, AllocMB: p.allocMB,
		Mallocs: p.mallocs, GCs: p.gcs, Attempted: p.attempted, Failed: p.failed, Sim: p.sim}
}

// traceFile is passes.json: the untraced reference pass, the traced
// passes the CPU profile covers, and the stepped pass (batch only).
// The warm-up pass before the traced ones is not kept.
type traceFile struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Reference record   `json:"reference"`
	Traced    []record `json:"traced"`
	Stepped   *record  `json:"stepped,omitempty"`
}

// runTraced is the traced run. It first makes one untraced pass to warm
// the process up, then measures with spans kept and the CPU profiler on
// for the rest of the budget (at least minPasses passes), then makes an
// untraced reference pass, which the tracing overhead is measured
// against, and the workload's stepped pass if it has one. It writes spans.json, cpu.pprof and
// passes.json to dir, reduces them to the per-layer metrics and writes
// those to metrics.json.
func runTraced(w workload, jobs []job, seed uint64, budget time.Duration, dir string) (result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	start := time.Now()
	warm, err := measurePass(w, jobs, newTracer(false), "pass")
	if err != nil {
		return result{}, err
	}

	prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return result{}, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return result{}, err
	}
	tr := newTracer(true)
	passes, err := measure(w, jobs, tr, budget-time.Since(start))
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	if err := prof.Close(); err != nil {
		return result{}, err
	}

	ref, err := measurePass(w, jobs, newTracer(false), "pass")
	if err != nil {
		return result{}, err
	}
	tf := traceFile{Workload: w.name, Seed: seed, Reference: recordOf(ref)}
	for _, p := range passes {
		tf.Traced = append(tf.Traced, recordOf(p))
	}
	var stepped *pass
	if w.stepped != nil {
		m := tr.begin("stepped", -1, "")
		stepped, err = w.stepped(jobs, tr)
		tr.end(m)
		if err != nil {
			return result{}, err
		}
		rec := recordOf(stepped)
		tf.Stepped = &rec
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), tr.spans); err != nil {
		return result{}, err
	}
	if err := writeJSON(filepath.Join(dir, "passes.json"), tf); err != nil {
		return result{}, err
	}
	metrics, err := reduce(dir)
	if err != nil {
		return result{}, err
	}
	if err := writeJSON(filepath.Join(dir, "metrics.json"), metrics); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced run written to %s\n", dir)

	res := summarize(append([]*pass{warm, ref}, passes...), nil)
	if stepped != nil {
		res.Attempted += stepped.attempted
		res.Failed += stepped.failed
		res.Correct = res.Correct && stepped.failed == 0
	}
	res.Metrics = metrics
	return res, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// resetPeakRSS resets the kernel's peak-RSS mark for this process
// (Linux clear_refs). Where that is not allowed the mark keeps the
// process-wide peak, which only makes later passes read higher.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(string(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM in /proc/self/status")
}
