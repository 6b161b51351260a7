package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// smallJobs is each workload at its smallest size: one job per program.
func smallJobs(w workload, seed uint64) []job {
	size := len(mixScales)
	if w.name == "batch" {
		size = 1
	}
	return w.jobs(seed, size)
}

// TestWorkloadsReplay runs each workload twice on one seed. Every
// simulated metric and counter must repeat exactly, every job must
// pass its checksum, and the spans must nest.
func TestWorkloadsReplay(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			jobs := smallJobs(w, 3)
			var passes []*pass
			for i := 0; i < 2; i++ {
				tr := newTracer(true)
				p, err := measurePass(w, jobs, tr, "pass")
				if err != nil {
					t.Fatal(err)
				}
				if p.failed != 0 || p.attempted != len(jobs) {
					t.Fatalf("pass %d: %d of %d jobs failed:\n%s", i, p.failed, p.attempted, p.fingerprint)
				}
				if err := checkNesting(tr.spans); err != nil {
					t.Fatal(err)
				}
				if len(tr.open) != 0 {
					t.Fatalf("%d spans left open", len(tr.open))
				}
				passes = append(passes, p)
			}
			if err := replays(passes); err != nil {
				t.Fatal(err)
			}
			a, b := summarize(passes[:1], nil), summarize(passes[1:], nil)
			for _, m := range []string{"sim_mcycles", "sim_latency_p50_mcycles", "sim_latency_p90_mcycles", "job_ok_ratio"} {
				if a.Metrics[m] != b.Metrics[m] {
					t.Errorf("%s: %v then %v", m, a.Metrics[m], b.Metrics[m])
				}
			}
			if passes[0].sim["vm.instrs"] == 0 || passes[0].simCycles == 0 {
				t.Errorf("pass counted no simulated work: %v", passes[0].sim)
			}
		})
	}
}

// TestWrongChecksumFails checks that a job whose checksum differs from
// its reference counts as failed and makes the run incorrect.
func TestWrongChecksumFails(t *testing.T) {
	w, err := workloadByName("serve")
	if err != nil {
		t.Fatal(err)
	}
	jobs := smallJobs(w, 3)
	ref := jobs[2].spec.Reference
	jobs[2].spec.Reference = func(threads, scale int) int32 { return ref(threads, scale) + 1 }
	p, err := measurePass(w, jobs, newTracer(false), "pass")
	if err != nil {
		t.Fatal(err)
	}
	res := summarize([]*pass{p}, nil)
	if res.Correct || res.Failed != 1 || res.Metrics["job_ok_ratio"].Value >= 1 {
		t.Errorf("a wrong checksum gave correct=%v failed=%d job_ok_ratio=%v",
			res.Correct, res.Failed, res.Metrics["job_ok_ratio"].Value)
	}
	if got := res.Metrics["sim_latency_p90_mcycles"].Value; got < 1e12 {
		t.Errorf("p90 latency %v Mcycles with a failed job among six, want it to miss every limit", got)
	}
}

// TestJobListsFollowSeed checks that a seed names one job list and that
// another seed draws another.
func TestJobListsFollowSeed(t *testing.T) {
	for _, w := range workloadList {
		a, b, c := w.jobs(1, w.size), w.jobs(1, w.size), w.jobs(2, w.size)
		if !reflect.DeepEqual(describe(a), describe(b)) {
			t.Errorf("%s: seed 1 drew two different job lists", w.name)
		}
		if reflect.DeepEqual(describe(a), describe(c)) {
			t.Errorf("%s: seeds 1 and 2 drew the same job list", w.name)
		}
		if len(a) < 100 {
			t.Errorf("%s: %d jobs in a pass; the p90 needs ten beyond it", w.name, len(a))
		}
	}
}

func describe(jobs []job) []any {
	var out []any
	for _, j := range jobs {
		out = append(out, []any{j.spec.Name, j.threads, j.scale, j.arrival})
	}
	return out
}

// TestTracedRunReduces makes a short traced run and checks that its
// files reduce to every per-layer metric.
func TestTracedRunReduces(t *testing.T) {
	w, err := workloadByName("cluster")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := runTraced(w, smallJobs(w, 5), 5, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run failed: %+v", res)
	}
	for _, f := range []string{"spans.json", "passes.json", "cpu.pprof", "pprof_exec_top.txt", "metrics.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
	again, err := reduce(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, res.Metrics) {
		t.Error("reducing the files again gave other metrics than the run printed")
	}
	for _, m := range perLayer() {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("per-layer metric %s missing", m.name)
		}
	}
	for _, m := range []string{"cluster.boot_s", "vm.boot_s", "workloads.build_s", "cluster.dispatch_s", "vm.instrs", "cluster.barriers"} {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on the cluster workload", m, res.Metrics[m].Value)
		}
	}
}

// TestHostExecSOutvotesSlowPass checks that a window slowed in one pass
// of three counts at its usual time, and that a window counts as often
// as a pass times it.
func TestHostExecSOutvotesSlowPass(t *testing.T) {
	var passes []*pass
	for i := 0; i < 3; i++ {
		p := newPass()
		p.addWindow("compress/1", 1)
		p.addWindow("compress/1", 1)
		p.addWindow("0", 2)
		passes = append(passes, p)
	}
	passes[1].windows["0"][0] = 20
	if got := hostExecS(passes...); got != 4 {
		t.Errorf("host execution %v s, want 4", got)
	}
}

func TestSelfSeconds(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 10e9},
		{ID: 1, Parent: 0, Start: 1e9, End: 4e9},
		{ID: 2, Parent: 0, Start: 5e9, End: 6e9},
		{ID: 3, Parent: 1, Start: 2e9, End: 3e9},
	}
	if got, want := selfSeconds(spans), []float64{6, 2, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("self seconds %v, want %v", got, want)
	}
	if err := checkNesting(spans); err != nil {
		t.Error(err)
	}
	spans[3].End = 5e9
	if checkNesting(spans) == nil {
		t.Error("a child ending after its parent passed the nesting check")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// metrics the benchmark prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers, workloads []entry
	for _, m := range endToEnd {
		e2e = append(e2e, entry{m.name, m.unit})
	}
	for _, m := range perLayer() {
		layers = append(layers, entry{m.name, m.unit})
	}
	for _, w := range workloadList {
		workloads = append(workloads, entry{Name: w.name})
	}
	var named []entry
	for _, w := range spec.Workloads {
		named = append(named, entry{Name: w.Name})
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2e) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nbenchmark prints:\n%v", spec.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nbenchmark prints:\n%v", spec.PerLayer, layers)
	}
	if !reflect.DeepEqual(named, workloads) {
		t.Errorf("workloads in BENCHMARK.json %v, benchmark runs %v", named, workloads)
	}
}
