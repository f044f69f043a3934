// Command perfbench is the repository's benchmark: one command that runs a
// named workload in-process against the web-of-concepts system, checks that
// the outputs are correct, and prints every metric by name and unit.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload serve-uniform-6k --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh -compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, measured by a separate traced run. Lines above it are
// the human-readable report, including workload-specific metrics. A failed
// output check prints correct=false and exits 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	callers  int // load-generating goroutines (nproc)
	tmpDir   string
}

// measured is one metric value with its unit.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one run's metrics and check outcomes. Every metric
// measured goes into the report; the JSON line carries exactly the set
// BENCHMARK.json declares (end_to_end or per_layer), which every workload
// defines. Workload-specific metrics (serving-layer, refresh, disk-store
// figures) appear in the report only.
type result struct {
	attempted, failed int
	m                 map[string]measured
	problems          []string
}

func newResult() *result { return &result{m: map[string]measured{}} }

// put records one metric.
func (r *result) put(name string, value float64, unit string) {
	r.m[name] = measured{value, unit}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloadFuncs maps workload names to their runners.
var workloadFuncs = map[string]func(config, *result) error{
	"build-heavytail-20k": runBuild,
	"serve-uniform-6k":    runServeUniform,
	"serve-churn-2k":      runServeChurn,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: build-heavytail-20k, serve-uniform-6k or serve-churn-2k")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 15, "how long the measured phases of one run last")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	compareMode := flag.Bool("compare", false, "compare result files (args: parent.jsonl [change.jsonl]) against BENCHMARK.json bounds")
	flag.Parse()

	if *compareMode {
		os.Exit(runCompare(flag.Args()))
	}
	run, ok := workloadFuncs[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags (see -h)\n", cfg.workload)
		os.Exit(2)
	}
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.callers = runtime.NumCPU()
	tmp, err := benchTmpDir()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	cfg.tmpDir = tmp

	fmt.Printf("workload %s seed %d seconds %d trace %d (numcpu %d, gomaxprocs %d, %s)\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res := newResult()
	steal0, total0 := cpuTicks()
	if err := run(cfg, res); err != nil {
		// A run that could not complete prints no result line.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.RemoveAll(tmp)
		os.Exit(1)
	}
	res.put("peak_rss_mib", peakRSSMiB(), "MiB")
	// Host contention explains run-to-run noise: the share of CPU time the
	// hypervisor gave to other machines during the run.
	if steal1, total1 := cpuTicks(); total1 > total0 {
		res.put("host.steal_share", (steal1-steal0)/(total1-total0), "share")
	}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	code := emit(res, want)
	os.RemoveAll(tmp)
	os.Exit(code)
}

// benchTmpDir makes the run's scratch directory inside the build directory
// of the checkout the benchmark runs from, never the system temp dir.
func benchTmpDir() (string, error) {
	const root = ".bench_build/tmp"
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}

// emit prints the report and the JSON result line carrying the metrics in
// want; it returns the exit code.
func emit(res *result, want []specMetric) int {
	if res.attempted < 1 {
		res.attempted = 1
		res.problem("no operations attempted")
	}
	out := map[string]measured{}
	for _, w := range want {
		m, ok := res.m[w.Name]
		switch {
		case !ok:
			res.problem("metric %s was not measured", w.Name)
			m.Unit = w.Unit
		case m.Unit != w.Unit:
			res.problem("metric %s measured in %s, declared in %s", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			res.problem("metric %s is %v", w.Name, m.Value)
			m.Value = 0
		}
		out[w.Name] = m
	}
	names := make([]string, 0, len(res.m))
	for n := range res.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mark := " "
		if _, ok := out[n]; ok {
			mark = "*"
		}
		fmt.Printf("%s %-42s %14.4f %s\n", mark, n, res.m[n].Value, res.m[n].Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// since is seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
