// Command perfbench is the PARAGON benchmark: it generates one
// workload's input from a seed, drives the library's public entry points
// (paragon.Refine, partition, aragon.Refiner, session.Session,
// dir.Directory, dyn.Workload), checks the outputs and prints one JSON
// result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload social-uniform --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, with --trace 1
// the per-layer metrics of a separate traced run. Workloads, metrics and
// the layer-to-end-to-end mapping are described in perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics and checks.
type report struct {
	metrics   map[string]metric
	attempted int // checks made
	failed    int // checks failed
	failures  []string
	hashes    map[string]string
	samples   map[string]int
	observed  map[string]float64 // recorded with the result, not checked
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, hashes: map[string]string{}, samples: map[string]int{},
		observed: map[string]float64{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

func (r *report) hash(name string, h uint64) { r.hashes[name] = fmt.Sprintf("%#016x", h) }

// check counts one verified output; a failed one is recorded with its
// message. It returns ok.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload and fills r.
func run(r *report, name string, seed int64, window time.Duration, trace, quick bool) error {
	sp, err := lookupSpec(name, quick)
	if err != nil {
		return err
	}
	if !trace {
		if sp.batches > 0 {
			return measureDaemon(r, sp, seed, window)
		}
		return measureRefine(r, sp, seed, window)
	}
	in, err := sp.setup(seed)
	if err != nil {
		return err
	}
	cfg := in.refineConfig(seed, 2)
	if sp.batches > 0 {
		cfg.Shuffles = churnShuffles // the refinement each epoch runs
	}
	// Half the window goes to the refinement probe; the session probe
	// and the Workers=1, replay and BFS steps take most of the rest.
	if err := probeRefine(r, in, cfg, window/2); err != nil {
		return err
	}
	if sp.batches > 0 {
		return probeSession(r, in, seed, sp.batches, churnTrigger, true)
	}
	return probeSession(r, in, seed, probeBatches, probeTrigger, false)
}

// execute runs one workload and finishes its report: peak RSS on the
// untraced run, and a failed check for any metric that is not finite.
// quick selects the self-test's small inputs.
func execute(name string, seed int64, window time.Duration, trace, quick bool) (*report, error) {
	r := newReport()
	if err := run(r, name, seed, window, trace, quick); err != nil {
		return nil, err
	}
	if !trace {
		r.set("peak_rss_mb", "MiB", peakRSSMB())
	}
	for name, m := range r.metrics {
		if !r.check(!math.IsNaN(m.Value) && !math.IsInf(m.Value, 0), "metric %s is %v", name, m.Value) {
			r.metrics[name] = metric{0, m.Unit}
		}
	}
	return r, nil
}

func main() {
	workload := flag.String("workload", "", "workload: social-uniform, road-arch or daemon-churn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics of a traced run")
	flag.Parse()
	if *workload == "" || *secs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	r, err := execute(*workload, *seed, time.Duration(*secs)*time.Second, *trace == 1, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}

	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	info := map[string]any{
		"workload":    *workload,
		"seed":        *seed,
		"trace":       *trace,
		"online_cpus": runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"commit":      commit,
		"source":      sourceDigest("."),
		"assign_hash": r.hashes,
		"samples":     r.samples,
		"observed":    r.observed,
		"checks":      r.attempted,
		"checks_ok":   r.attempted - r.failed,
		"window_s":    *secs,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}
