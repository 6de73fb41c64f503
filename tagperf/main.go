// Command tagperf is the TAG system's benchmark. It runs one workload
// against the program's public surfaces, checks every output, and prints
// its metrics; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of the untraced run.
// With -trace 1 the run is split in two halves, untraced then traced, and
// the metrics are the per-layer ones (spans around each call into a
// layer, plus deltas of the engine and LM counters). Spans are kept in
// memory and written once, at the end, to .bench_build/tagperf/.
//
// Workloads: tag-questions (the 80 TAG-Bench queries answered by the six
// methods), analytic-sql (aggregate shapes over a sealed fact table) and
// wire-oltp (point reads and writes over the Postgres wire protocol to a
// durable database). Run it from the repository root through run.sh, which
// builds it from source:
//
//	bash tagperf/run.sh --workload analytic-sql --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds the span files, relative to the directory the benchmark
// runs in (the repository root).
const outDir = ".bench_build/tagperf"

// setupReps is how many times each workload sets up per run; setup_s is
// the median.
const setupReps = 5

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what a workload run produces.
type report struct {
	attempted, failed int
	metrics           []metric // in print order
	notes             []string // extra human-readable lines (plans, splits)
	spans             *spanLog // traced half only
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"tag-questions": runTagQuestions,
	"analytic-sql":  runAnalyticSQL,
	"wire-oltp":     runWireOLTP,
}

// srcRev identifies the source tree the binary was built from; run.sh
// sets it with -ldflags.
var srcRev = "unknown"

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: tag-questions, analytic-sql or wire-oltp")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs and their order")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: split the run into an untraced and a traced half and report per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "tagperf: usage: -workload %s -seed N -seconds S -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	for _, line := range stamp(cfg) {
		fmt.Println(line)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tagperf: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if rep.spans != nil {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.csv", cfg.workload, cfg.seed))
		if err := rep.spans.write(path, stamp(cfg)); err != nil {
			fmt.Fprintf(os.Stderr, "tagperf: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans %d written to %s\n", len(rep.spans.spans), path)
	}
	if err := emit(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "tagperf: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints every metric as a human-readable line, then the JSON result
// holding exactly the metrics the mode declares. A per-layer metric of a
// layer the workload does not exercise reads 0; any other missing metric
// is an error.
func emit(cfg config, rep *report) error {
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	got := make(map[string]metric, len(rep.metrics))
	for _, m := range rep.metrics {
		got[m.name] = m
	}
	out := map[string]any{}
	for _, d := range declared(cfg.trace) {
		m, ok := got[d.name]
		switch {
		case ok && m.unit != d.unit:
			return fmt.Errorf("metric %s: unit %q, declared %q", d.name, m.unit, d.unit)
		case !ok && (!cfg.trace || d.workload == cfg.workload || d.workload == wlAll):
			return fmt.Errorf("metric %s was not measured", d.name)
		case !ok:
			m = metric{d.name, 0, d.unit}
		}
		delete(got, d.name)
		if cfg.trace {
			fmt.Printf("metric %-36s %14.6f %-12s [%s; moves %s]\n", m.name, m.value, m.unit, d.workload, d.moves)
		} else {
			fmt.Printf("metric %-36s %14.6f %s\n", m.name, m.value, m.unit)
		}
		out[d.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, m := range rep.metrics { // measured but not declared in this mode
		if _, ok := got[m.name]; ok {
			fmt.Printf("metric %-36s %14.6f %s\n", m.name, m.value, m.unit)
		}
	}
	failedShare := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Printf("metric %-36s %14.6f %s\n", "failed_share", failedShare, "share")
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0 && rep.attempted > 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// stamp describes the machine, toolchain, source and configuration every
// result was measured under.
func stamp(cfg config) []string {
	policy := "in-memory (no WAL)"
	if cfg.workload == "wire-oltp" {
		policy = "SyncAlways (fsync per commit, group commit)"
	}
	return []string{
		"stamp cpu " + cpuModel(),
		fmt.Sprintf("stamp nproc %d", runtime.NumCPU()),
		fmt.Sprintf("stamp gomaxprocs %d", runtime.GOMAXPROCS(0)),
		"stamp go " + runtime.Version(),
		"stamp rev " + srcRev,
		"stamp flush " + policy,
		fmt.Sprintf("stamp workload %s seed %d seconds %g trace %t", cfg.workload, cfg.seed, cfg.seconds, cfg.trace),
		"stamp time " + time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
