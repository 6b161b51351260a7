// Command perfbench is the Hera-JVM benchmark. It runs one named
// workload against the public layer APIs (workloads, vm, core,
// cluster), checks every job's checksum against its Go reference, and
// prints the end-to-end metrics as the last line of its output:
//
//	perfbench --workload batch --seed 1 --seconds 25 --trace 0
//
// With --trace 1 it instead records a span around every layer call,
// takes a CPU profile, writes both beside its metrics under
// .bench_out/<workload>-<seed>/ and prints the per-layer metrics.
// perfbench --reduce <dir> recomputes those metrics from the files.
// See README.md for the metrics, the workloads and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workload is one named job list and the driver that runs it.
type workload struct {
	name string
	// jobs draws the job list of a full pass from the seed; size is the
	// list length parameter (jobs per program for batch, jobs for the
	// open-loop workloads).
	jobs func(seed uint64, size int) []job
	size int
	// run executes the list once.
	run func(jobs []job, tr *tracer) (*pass, error)
	// setup makes only the set-up of a pass and returns its host
	// seconds; nil where a pass already sets up many times.
	setup func(jobs []job, tr *tracer) (float64, error)
	// stepped, where set, runs some of the jobs with the superblock fast
	// path off for the traced run's stepped-speed metrics.
	stepped func(jobs []job, tr *tracer) (*pass, error)
}

var workloadList = []workload{
	{name: "batch", jobs: batchJobs, size: batchJobsPerProgram, run: batchPass, stepped: batchStepped},
	{name: "serve", jobs: serveJobs, size: mixJobs, run: servePass,
		setup: func(jobs []job, tr *tracer) (float64, error) {
			_, s, err := serveSetup(jobs, tr)
			return s, err
		}},
	{name: "cluster", jobs: clusterJobs, size: mixJobs, run: clusterPass,
		setup: func(jobs []job, tr *tracer) (float64, error) {
			_, s, err := clusterSetup(jobs, tr)
			return s, err
		}},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want batch, serve or cluster)", name)
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: batch, serve or cluster")
	seed := flag.Uint64("seed", 1, "seed the job list and arrivals are drawn from")
	seconds := flag.Int("seconds", 25, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 records spans and a CPU profile and prints the per-layer metrics")
	reduceDir := flag.String("reduce", "", "recompute the per-layer metrics of a traced run from its directory and exit")
	flag.Parse()

	if *reduceDir != "" {
		metrics, err := reduce(*reduceDir)
		if err != nil {
			fatal(err)
		}
		printResult(result{Correct: true, Attempted: 1, Metrics: metrics})
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal(errors.New("--seconds must be at least 1 and --trace 0 or 1"))
	}
	budget := time.Duration(*seconds) * time.Second
	jobs := w.jobs(*seed, w.size)
	var res result
	if *trace == 1 {
		dir := filepath.Join(".bench_out", fmt.Sprintf("%s-%d", w.name, *seed))
		res, err = runTraced(w, jobs, *seed, budget, dir)
	} else {
		res, err = runPlain(w, jobs, budget)
	}
	if err != nil {
		fatal(err)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func printResult(r result) {
	line, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
